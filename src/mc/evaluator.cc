#include "mc/evaluator.h"

#include <algorithm>
#include <chrono>

#include "mc/bytecode.h"
#include "mc/compiler.h"
#include "mc/vm.h"

namespace folearn {

const char* EvalEngineName(EvalEngine engine) {
  switch (engine) {
    case EvalEngine::kVm: return "vm";
    case EvalEngine::kInterpreted: return "interpreted";
  }
  return "unknown";
}

std::optional<EvalEngine> ParseEvalEngine(const std::string& name) {
  if (name == "vm") return EvalEngine::kVm;
  if (name == "interpreted") return EvalEngine::kInterpreted;
  return std::nullopt;
}

Assignment::Assignment(std::span<const std::string> vars,
                       std::span<const Vertex> values) {
  FOLEARN_CHECK_EQ(vars.size(), values.size());
  for (size_t i = 0; i < vars.size(); ++i) Bind(vars[i], values[i]);
}

Assignment::VarStack& Assignment::FindOrCreate(const std::string& var) {
  if (last_hit_ < stacks_.size() && stacks_[last_hit_].name == var) {
    return stacks_[last_hit_];
  }
  for (size_t i = 0; i < stacks_.size(); ++i) {
    if (stacks_[i].name == var) {
      last_hit_ = i;
      return stacks_[i];
    }
  }
  last_hit_ = stacks_.size();
  stacks_.push_back(VarStack{var, {}});
  return stacks_.back();
}

const Assignment::VarStack* Assignment::Find(const std::string& var) const {
  if (last_hit_ < stacks_.size() && stacks_[last_hit_].name == var) {
    return &stacks_[last_hit_];
  }
  for (size_t i = 0; i < stacks_.size(); ++i) {
    if (stacks_[i].name == var) {
      last_hit_ = i;
      return &stacks_[i];
    }
  }
  return nullptr;
}

void Assignment::Rebind(const std::string& var, Vertex value) {
  VarStack* stack = const_cast<VarStack*>(Find(var));
  FOLEARN_CHECK(stack != nullptr && !stack->values.empty())
      << "rebinding unbound variable '" << var << "'";
  stack->values.back() = value;
}

void Assignment::Unbind(const std::string& var) {
  VarStack* stack = const_cast<VarStack*>(Find(var));
  FOLEARN_CHECK(stack != nullptr && !stack->values.empty())
      << "unbinding unbound variable '" << var << "'";
  stack->values.pop_back();
}

std::optional<Vertex> Assignment::Lookup(const std::string& var) const {
  const VarStack* stack = Find(var);
  if (stack == nullptr || stack->values.empty()) return std::nullopt;
  return stack->values.back();
}

Assignment::SetStack& Assignment::FindOrCreateSet(const std::string& set_var) {
  for (size_t i = 0; i < set_stacks_.size(); ++i) {
    if (set_stacks_[i].name == set_var) return set_stacks_[i];
  }
  set_stacks_.push_back(SetStack{set_var, {}});
  return set_stacks_.back();
}

const Assignment::SetStack* Assignment::FindSet(
    const std::string& set_var) const {
  for (size_t i = 0; i < set_stacks_.size(); ++i) {
    if (set_stacks_[i].name == set_var) return &set_stacks_[i];
  }
  return nullptr;
}

void Assignment::UnbindSet(const std::string& set_var) {
  SetStack* stack = const_cast<SetStack*>(FindSet(set_var));
  FOLEARN_CHECK(stack != nullptr && !stack->values.empty())
      << "unbinding unbound set variable '" << set_var << "'";
  stack->values.pop_back();
}

Assignment::SetValue Assignment::LookupSet(const std::string& set_var) const {
  const SetStack* stack = FindSet(set_var);
  if (stack == nullptr || stack->values.empty()) return nullptr;
  return stack->values.back();
}

namespace {

class Evaluator {
 public:
  Evaluator(const Graph& graph, const EvalOptions& options, EvalStats* stats)
      : graph_(graph), options_(options), stats_(stats) {}

  bool Eval(const FormulaRef& f, Assignment& assignment) {
    switch (f->kind()) {
      case FormulaKind::kTrue:
        return true;
      case FormulaKind::kFalse:
        return false;
      case FormulaKind::kEdge: {
        CountAtom();
        return graph_.HasEdge(Value(assignment, f->var1()),
                              Value(assignment, f->var2()));
      }
      case FormulaKind::kEquals: {
        CountAtom();
        return Value(assignment, f->var1()) == Value(assignment, f->var2());
      }
      case FormulaKind::kColor: {
        CountAtom();
        std::optional<ColorId> color = graph_.FindColor(f->color_name());
        if (!color.has_value()) {
          FOLEARN_CHECK(options_.missing_color_is_false)
              << "colour '" << f->color_name()
              << "' not in the graph's vocabulary";
          return false;
        }
        return graph_.HasColor(Value(assignment, f->var1()), *color);
      }
      case FormulaKind::kNot:
        return !Eval(f->child(0), assignment);
      case FormulaKind::kAnd:
        for (const FormulaRef& child : f->children()) {
          if (!Eval(child, assignment)) return false;
        }
        return true;
      case FormulaKind::kOr:
        for (const FormulaRef& child : f->children()) {
          if (Eval(child, assignment)) return true;
        }
        return false;
      case FormulaKind::kSetMember: {
        CountAtom();
        Assignment::SetValue members = assignment.LookupSet(f->set_name());
        FOLEARN_CHECK(members != nullptr)
            << "unbound set variable '" << f->set_name() << "'";
        Vertex v = Value(assignment, f->var1());
        return (*members)[v];
      }
      case FormulaKind::kExistsSet:
      case FormulaKind::kForallSet: {
        FOLEARN_CHECK_LE(graph_.order(), kMaxMsoOrder)
            << "MSO set quantification enumerates 2^n subsets; structure "
               "too large";
        const bool is_exists = f->kind() == FormulaKind::kExistsSet;
        const std::string& set_var = f->quantified_var();
        const uint64_t subsets = uint64_t{1} << graph_.order();
        for (uint64_t mask = 0; mask < subsets; ++mask) {
          if (!GovernorCheckpoint(options_.governor)) return false;
          if (stats_ != nullptr) ++stats_->quantifier_branches;
          auto members = std::make_shared<std::vector<bool>>(graph_.order());
          for (Vertex v = 0; v < graph_.order(); ++v) {
            (*members)[v] = (mask >> v) & 1;
          }
          assignment.BindSet(set_var, std::move(members));
          bool value = Eval(f->child(0), assignment);
          assignment.UnbindSet(set_var);
          if (value == is_exists) return is_exists;
        }
        return !is_exists;
      }
      case FormulaKind::kCountExists: {
        FOLEARN_CHECK_GT(graph_.order(), 0)
            << "quantifier evaluated on the empty graph";
        const std::string& var = f->quantified_var();
        int needed = f->threshold();
        for (Vertex v = 0; v < graph_.order() && needed > 0; ++v) {
          // Early abort: not enough vertices left to reach the threshold.
          if (graph_.order() - v < needed) break;
          if (!GovernorCheckpoint(options_.governor)) return false;
          if (stats_ != nullptr) ++stats_->quantifier_branches;
          assignment.Bind(var, v);
          if (Eval(f->child(0), assignment)) --needed;
          assignment.Unbind(var);
        }
        return needed == 0;
      }
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        FOLEARN_CHECK_GT(graph_.order(), 0)
            << "quantifier evaluated on the empty graph";
        const bool is_exists = f->kind() == FormulaKind::kExists;
        const std::string& var = f->quantified_var();
        for (Vertex v = 0; v < graph_.order(); ++v) {
          if (!GovernorCheckpoint(options_.governor)) return false;
          if (stats_ != nullptr) ++stats_->quantifier_branches;
          assignment.Bind(var, v);
          bool value = Eval(f->child(0), assignment);
          assignment.Unbind(var);
          if (value == is_exists) return is_exists;
        }
        return !is_exists;
      }
    }
    FOLEARN_CHECK(false) << "unreachable";
    return false;
  }

 private:
  Vertex Value(const Assignment& assignment, const std::string& var) {
    std::optional<Vertex> value = assignment.Lookup(var);
    FOLEARN_CHECK(value.has_value()) << "unbound variable '" << var << "'";
    FOLEARN_CHECK(graph_.IsValidVertex(*value))
        << "variable '" << var << "' bound to invalid vertex " << *value;
    return *value;
  }

  void CountAtom() {
    if (stats_ != nullptr) ++stats_->atom_evaluations;
  }

  const Graph& graph_;
  const EvalOptions& options_;
  EvalStats* stats_;
};

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

}  // namespace

bool Evaluate(const Graph& graph, const FormulaRef& formula,
              const Assignment& assignment, const EvalOptions& options,
              EvalStats* stats) {
  FOLEARN_CHECK(formula != nullptr);
  Assignment working = assignment;
  bool value = Evaluator(graph, options, stats).Eval(formula, working);
  if (stats != nullptr) stats->status = GovernorStatus(options.governor);
  return value;
}

// The one-shot entry points are one-tuple batches: on the VM that is one
// compile + lower + run, on the interpreter one recursive evaluation.
bool EvaluateSentence(const Graph& graph, const FormulaRef& sentence,
                      const EvalOptions& options, EvalStats* stats) {
  FOLEARN_CHECK(sentence->free_variables().empty())
      << "sentence expected, but formula has free variables";
  FOLEARN_CHECK(sentence->free_set_variables().empty())
      << "sentence expected, but formula has free set variables";
  const std::vector<std::vector<Vertex>> empty_tuple(1);
  return EvaluateOnTuples(graph, sentence, {}, empty_tuple, options, stats)
      .front();
}

bool EvaluateQuery(const Graph& graph, const FormulaRef& formula,
                   std::span<const std::string> vars,
                   std::span<const Vertex> tuple, const EvalOptions& options,
                   EvalStats* stats) {
  return EvaluateOnTuples(graph, formula, vars,
                          {std::vector<Vertex>(tuple.begin(), tuple.end())},
                          options, stats)
      .front();
}

std::vector<bool> EvaluateOnTuples(
    const Graph& graph, const FormulaRef& formula,
    std::span<const std::string> vars,
    const std::vector<std::vector<Vertex>>& tuples, const EvalOptions& options,
    EvalStats* stats) {
  FOLEARN_CHECK(formula != nullptr);
  std::vector<bool> results;
  results.reserve(tuples.size());
  if (tuples.empty()) return results;

  if (options.engine == EvalEngine::kVm) {
    // One plan, one evaluator, all tuples. The clock is read only when a
    // stats sink is attached.
    SteadyClock::time_point start;
    if (stats != nullptr) start = SteadyClock::now();
    CompiledFormula plan = CompileFormula(formula, vars);
    if (stats != nullptr) {
      stats->compile_ms += MsSince(start);
      start = SteadyClock::now();
    }
    LoweredPlan lowered = LowerPlan(plan);
    VmEvaluator evaluator(plan, lowered, graph, options);
    if (stats != nullptr) {
      stats->lower_ms += MsSince(start);
      start = SteadyClock::now();
    }
    for (const std::vector<Vertex>& tuple : tuples) {
      FOLEARN_CHECK_EQ(tuple.size(), vars.size());
      results.push_back(evaluator.Eval(tuple, stats));
    }
    if (stats != nullptr) {
      const double ms = MsSince(start);
      stats->eval_ms += ms;
      stats->exec_ms += ms;
    }
    return results;
  }

  // Interpreter: build the assignment once and rebind per tuple
  // (the evaluator restores the binding stacks after every call, even when
  // the governor trips mid-recursion, so reuse is sound).
  Evaluator evaluator(graph, options, stats);
  Assignment assignment(vars, tuples.front());
  for (size_t i = 0; i < tuples.size(); ++i) {
    const std::vector<Vertex>& tuple = tuples[i];
    FOLEARN_CHECK_EQ(tuple.size(), vars.size());
    if (i > 0) {
      for (size_t j = 0; j < vars.size(); ++j) {
        assignment.Rebind(vars[j], tuple[j]);
      }
    }
    results.push_back(evaluator.Eval(formula, assignment));
  }
  if (stats != nullptr) stats->status = GovernorStatus(options.governor);
  return results;
}

}  // namespace folearn
