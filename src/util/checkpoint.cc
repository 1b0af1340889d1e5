#include "util/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/mem_budget.h"
#include "util/strings.h"

namespace folearn {

namespace {

constexpr char kMagic[] = "folearn-checkpoint";
constexpr char kVersion[] = "v1";

// Takes the next '\n'-terminated line off `rest`. Returns false if no
// newline remains (truncated header).
bool TakeLine(std::string_view* rest, std::string_view* line) {
  size_t pos = rest->find('\n');
  if (pos == std::string_view::npos) return false;
  *line = rest->substr(0, pos);
  *rest = rest->substr(pos + 1);
  return true;
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes, uint64_t seed) {
  uint64_t hash = seed;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t Fnv1a64(std::string_view bytes) {
  return Fnv1a64(bytes, 0xcbf29ce484222325ULL);
}

// Every durable artefact in the code base — checkpoint files, session
// journals, .fog graph packs — funnels through here, which makes this the
// single choke point for both the durability discipline (write temp,
// fsync, rename — a crash or ENOSPC at any instant leaves either the old
// file or the new one at `path`, never a torn hybrid) and for
// deterministic disk-fault injection (ResourceFaults::ArmDiskFailure
// fails the Nth write in any of four modes). Every failure path removes
// the temp file and reports kUnavailable: the caller's file at the final
// path is untouched and the operation is retry-safe.
Status WriteFileAtomic(const std::string& path, std::string_view content) {
  const std::string temp = path + ".tmp";
  using DiskMode = ResourceFaults::DiskMode;
  const DiskMode fault = ResourceFaults::Instance().ShouldFailDiskWrite();
  if (fault == DiskMode::kOpenFail) {
    return UnavailableError("cannot open '" + temp +
                            "' for writing: injected ENOSPC");
  }
  const int fd =
      ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return UnavailableError("cannot open '" + temp +
                            "' for writing: " + std::strerror(errno));
  }
  // A short-write fault stops partway through the payload, modelling the
  // disk filling mid-write; the partial temp file is removed below and
  // must never become visible at `path`.
  const size_t goal =
      fault == DiskMode::kShortWrite ? content.size() / 2 : content.size();
  size_t written = 0;
  bool write_failed = false;
  while (written < goal) {
    const ssize_t n = ::write(fd, content.data() + written, goal - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      write_failed = true;
      break;
    }
    written += static_cast<size_t>(n);
  }
  if (write_failed || goal != content.size()) {
    ::close(fd);
    ::unlink(temp.c_str());
    return UnavailableError("short write to '" + temp + "'" +
                            (fault == DiskMode::kShortWrite
                                 ? ": injected ENOSPC"
                                 : ": " + std::string(std::strerror(errno))));
  }
  if (fault == DiskMode::kSyncFail || ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(temp.c_str());
    return UnavailableError("cannot sync '" + temp + "'" +
                            (fault == DiskMode::kSyncFail
                                 ? ": injected fsync failure"
                                 : ": " + std::string(std::strerror(errno))));
  }
  if (::close(fd) != 0) {
    ::unlink(temp.c_str());
    return UnavailableError("cannot close '" + temp +
                            "': " + std::string(std::strerror(errno)));
  }
  if (fault == DiskMode::kRenameFail || std::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    return UnavailableError("cannot rename '" + temp + "' to '" + path + "'" +
                            (fault == DiskMode::kRenameFail
                                 ? ": injected rename failure"
                                 : ""));
  }
  return OkStatus();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteCheckpointFile(const std::string& path,
                           std::string_view payload) {
  std::string content;
  content.reserve(payload.size() + 64);
  content += kMagic;
  content += ' ';
  content += kVersion;
  content += '\n';
  content += "length " + std::to_string(payload.size()) + '\n';
  content += "crc " + FormatHexUint64(Fnv1a64(payload)) + '\n';
  content += payload;
  return WriteFileAtomic(path, content);
}

StatusOr<std::string> ReadCheckpointFile(const std::string& path) {
  StatusOr<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  std::string_view rest = *content;

  std::string_view line;
  if (!TakeLine(&rest, &line)) {
    return DataLossError(path + ": line 1: truncated header (not a folearn "
                         "checkpoint)");
  }
  std::vector<std::string> header = Split(std::string(line), ' ');
  if (header.size() != 2 || header[0] != kMagic) {
    return DataLossError(path + ": line 1: not a folearn checkpoint");
  }
  if (header[1] != kVersion) {
    return DataLossError(path + ": line 1: unsupported checkpoint version '" +
                         header[1] + "' (this build reads " + kVersion + ")");
  }

  if (!TakeLine(&rest, &line) || line.substr(0, 7) != "length ") {
    return DataLossError(path + ": line 2: expected 'length <bytes>'");
  }
  int64_t length = 0;
  if (!ParseInt64(line.substr(7), &length) || length < 0) {
    return DataLossError(path + ": line 2: malformed length '" +
                         std::string(line.substr(7)) + "'");
  }

  if (!TakeLine(&rest, &line) || line.substr(0, 4) != "crc ") {
    return DataLossError(path + ": line 3: expected 'crc <16 hex digits>'");
  }
  uint64_t crc = 0;
  if (!ParseHexUint64(line.substr(4), &crc)) {
    return DataLossError(path + ": line 3: malformed checksum '" +
                         std::string(line.substr(4)) + "'");
  }

  if (static_cast<int64_t>(rest.size()) != length) {
    return DataLossError(
        path + ": truncated payload: header promises " +
        std::to_string(length) + " bytes, file carries " +
        std::to_string(rest.size()));
  }
  if (Fnv1a64(rest) != crc) {
    return DataLossError(path +
                         ": line 3: checksum mismatch (file is corrupt)");
  }
  return std::string(rest);
}

}  // namespace folearn
