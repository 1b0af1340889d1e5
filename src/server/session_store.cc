#include "server/session_store.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "server/protocol.h"
#include "util/checkpoint.h"
#include "util/governor.h"
#include "util/strings.h"

namespace folearn {

namespace {

constexpr char kJournalVersion[] = "1";
constexpr char kSessionPrefix[] = "session-";
constexpr char kSessionSuffix[] = ".ckpt";

Status VersionSkew(const std::string& path, const std::string& found) {
  return DataLossError("journal '" + path + "' has journal-version '" +
                       found + "', this build reads version " +
                       kJournalVersion);
}

}  // namespace

std::string SessionStore::SessionPath(uint64_t id) const {
  return dir_ + "/" + kSessionPrefix + std::to_string(id) + kSessionSuffix;
}

std::string SessionStore::MetaPath() const { return dir_ + "/meta.ckpt"; }

void SessionStore::CountWriteLocked() {
  ++journal_writes_;
  if (crash_at_ >= 0 && journal_writes_ >= crash_at_) {
    InjectedCrash("journal-write", journal_writes_);
  }
}

Status SessionStore::Init() {
  if (!enabled()) return OkStatus();
  if (::mkdir(dir_.c_str(), 0700) != 0 && errno != EEXIST) {
    return UnavailableError("cannot create state dir '" + dir_ + "': " +
                            std::strerror(errno));
  }
  struct stat st{};
  if (::stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return UnavailableError("state dir '" + dir_ + "' is not a directory");
  }
  // Probe the atomic-write path once so a read-only directory fails at
  // startup with a clear diagnostic, not on the first acknowledged learn.
  const std::string probe = dir_ + "/.probe";
  Status writable = WriteFileAtomic(probe, "probe");
  if (!writable.ok()) {
    return UnavailableError("state dir '" + dir_ +
                            "' is not writable: " + writable.message());
  }
  std::remove(probe.c_str());
  return OkStatus();
}

StatusOr<std::vector<uint64_t>> SessionStore::ListSessions() const {
  std::vector<uint64_t> ids;
  if (!enabled()) return ids;
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) {
    return UnavailableError("cannot list state dir '" + dir_ + "': " +
                            std::strerror(errno));
  }
  const std::string_view prefix = kSessionPrefix;
  const std::string_view suffix = kSessionSuffix;
  while (dirent* entry = ::readdir(dir)) {
    std::string_view name = entry->d_name;
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.substr(0, prefix.size()) != prefix) continue;
    if (name.substr(name.size() - suffix.size()) != suffix) continue;
    std::string_view digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    uint64_t id = 0;
    if (!ParseUint64(digits, &id)) continue;
    ids.push_back(id);
  }
  ::closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

StatusOr<SessionRecord> SessionStore::Load(uint64_t id) const {
  const std::string path = SessionPath(id);
  StatusOr<std::string> payload = ReadCheckpointFile(path);
  if (!payload.ok()) return payload.status();
  StatusOr<Message> fields = DecodeMessage(*payload);
  if (!fields.ok()) {
    return DataLossError("journal '" + path +
                         "' payload: " + fields.status().message());
  }
  const std::string version = fields->Get("journal-version");
  if (version != kJournalVersion) return VersionSkew(path, version);
  SessionRecord record;
  record.graph_text = fields->Get("graph");
  record.graph_file = fields->Get("graph-file");
  if (!record.graph_file.empty()) {
    if (!ParseUint64(fields->Get("graph-fingerprint"),
                     &record.graph_fingerprint)) {
      return DataLossError("journal '" + path + "' has a file-backed graph "
                           "but a malformed graph-fingerprint field");
    }
  }
  uint64_t recorded_id = 0;
  if (!ParseUint64(fields->Get("session"), &recorded_id) ||
      recorded_id != id) {
    return DataLossError("journal '" + path + "' names session '" +
                         fields->Get("session") + "', expected " +
                         std::to_string(id));
  }
  record.id = id;
  if (!ParseUint64(fields->Get("next-model", "1"), &record.next_model_id)) {
    return DataLossError("journal '" + path + "' has a malformed "
                         "next-model field");
  }
  // Models and dedup entries travel as prefixed keys; field order on the
  // wire is insertion order, which preserves the dedup window's FIFO.
  for (const auto& [key, value] : fields->fields) {
    constexpr std::string_view kModelPrefix = "model-";
    constexpr std::string_view kLearnPrefix = "learn-";
    if (key.size() > kModelPrefix.size() &&
        std::string_view(key).substr(0, kModelPrefix.size()) == kModelPrefix) {
      uint64_t model_id = 0;
      if (!ParseUint64(std::string_view(key).substr(kModelPrefix.size()),
                       &model_id)) {
        return DataLossError("journal '" + path + "' has a malformed model "
                             "key '" + key + "'");
      }
      record.models.emplace_back(model_id, value);
    } else if (key.size() > kLearnPrefix.size() &&
               std::string_view(key).substr(0, kLearnPrefix.size()) ==
                   kLearnPrefix) {
      record.learns.emplace_back(key.substr(kLearnPrefix.size()), value);
    }
  }
  return record;
}

Status SessionStore::Save(const SessionRecord& record) {
  if (!enabled()) return OkStatus();
  Message fields;
  fields.Set("journal-version", kJournalVersion);
  fields.Set("session", std::to_string(record.id));
  fields.Set("graph", record.graph_text);
  if (!record.graph_file.empty()) {
    fields.Set("graph-file", record.graph_file);
    fields.Set("graph-fingerprint",
               std::to_string(record.graph_fingerprint));
  }
  fields.Set("next-model", std::to_string(record.next_model_id));
  for (const auto& [model_id, text] : record.models) {
    fields.fields.emplace_back("model-" + std::to_string(model_id), text);
  }
  for (const auto& [request_id, response] : record.learns) {
    fields.fields.emplace_back("learn-" + request_id, response);
  }
  std::lock_guard<std::mutex> lock(mu_);
  Status written =
      WriteCheckpointFile(SessionPath(record.id), EncodeMessage(fields));
  if (!written.ok()) return written;
  CountWriteLocked();
  return OkStatus();
}

Status SessionStore::Remove(uint64_t id) {
  if (!enabled()) return OkStatus();
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = SessionPath(id);
  if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
    return UnavailableError("cannot remove journal '" + path + "': " +
                            std::strerror(errno));
  }
  CountWriteLocked();
  return OkStatus();
}

Status SessionStore::SaveNextSessionId(uint64_t next_session_id) {
  if (!enabled()) return OkStatus();
  Message fields;
  fields.Set("journal-version", kJournalVersion);
  fields.Set("next-session", std::to_string(next_session_id));
  std::lock_guard<std::mutex> lock(mu_);
  Status written = WriteCheckpointFile(MetaPath(), EncodeMessage(fields));
  if (!written.ok()) return written;
  CountWriteLocked();
  return OkStatus();
}

StatusOr<uint64_t> SessionStore::LoadNextSessionId() const {
  if (!enabled()) return static_cast<uint64_t>(1);
  StatusOr<std::string> payload = ReadCheckpointFile(MetaPath());
  if (!payload.ok()) {
    if (payload.status().code() == StatusCode::kNotFound) {
      return static_cast<uint64_t>(1);
    }
    return payload.status();
  }
  StatusOr<Message> fields = DecodeMessage(*payload);
  if (!fields.ok()) {
    return DataLossError("journal '" + MetaPath() +
                         "' payload: " + fields.status().message());
  }
  const std::string version = fields->Get("journal-version");
  if (version != kJournalVersion) return VersionSkew(MetaPath(), version);
  uint64_t next = 0;
  if (!ParseUint64(fields->Get("next-session"), &next) || next == 0) {
    return DataLossError("journal '" + MetaPath() +
                         "' has a malformed next-session field");
  }
  return next;
}

int64_t SessionStore::journal_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_writes_;
}

}  // namespace folearn
