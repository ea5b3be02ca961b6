#include "campaign/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/json.h"
#include "common/strings.h"

namespace pcpda {
namespace {

/// Strict cursor-based scanner for the fixed record shape. Any deviation
/// fails the whole line; the loader then treats it as torn.
class LineScanner {
 public:
  explicit LineScanner(const std::string& line) : s_(line) {}

  bool Literal(const char* text) {
    const std::size_t len = std::strlen(text);
    if (s_.compare(pos_, len, text) != 0) return false;
    pos_ += len;
    return true;
  }

  bool Int(std::int64_t* out) {
    std::size_t i = pos_;
    if (i < s_.size() && s_[i] == '-') ++i;
    std::size_t digits = i;
    while (i < s_.size() && s_[i] >= '0' && s_[i] <= '9') ++i;
    if (i == digits) return false;
    errno = 0;
    *out = std::strtoll(s_.c_str() + pos_, nullptr, 10);
    if (errno == ERANGE) return false;
    pos_ = i;
    return true;
  }

  bool QuotedString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char esc = s_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        case 'r':
          *out += '\r';
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          int value = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') {
              value |= h - '0';
            } else if (h >= 'a' && h <= 'f') {
              value |= h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              value |= h - 'A' + 10;
            } else {
              return false;
            }
          }
          if (value > 0xff) return false;  // messages are byte strings
          *out += static_cast<char>(value);
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool Done() const { return pos_ == s_.size(); }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Version 2 added intent and cancel lines. A version-1 reader refuses
/// the header instead of taking the first mark for a torn tail.
std::string HeaderLine(const std::string& fingerprint) {
  JsonWriter json;
  json.BeginObject(JsonLayout::kCompact).Key("campaign").String(fingerprint);
  return json.Key("v").Int(2).End().Finish();
}

const char* MarkKey(JobMark mark) {
  return mark == JobMark::kIntent ? "intent" : "cancel";
}

std::string EncodeJobMark(JobMark mark, std::int64_t job_id) {
  JsonWriter json;
  json.BeginObject(JsonLayout::kCompact).Key(MarkKey(mark)).Int(job_id);
  return json.End().Finish();
}

/// Strict inverse of EncodeJobMark; false for any other line.
bool DecodeJobMark(const std::string& line, JobMark* mark,
                   std::int64_t* job_id) {
  for (const JobMark candidate : {JobMark::kIntent, JobMark::kCancel}) {
    LineScanner scan(line);
    if (scan.Literal("{\"") && scan.Literal(MarkKey(candidate)) &&
        scan.Literal("\":") && scan.Int(job_id) && scan.Literal("}") &&
        scan.Done() && *job_id >= 0) {
      *mark = candidate;
      return true;
    }
  }
  return false;
}

Status Errno(const char* op, const std::string& path) {
  return Status::Internal(
      StrFormat("%s %s: %s", op, path.c_str(), std::strerror(errno)));
}

Status FsyncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync dir", dir);
  return Status::Ok();
}

Status WriteAll(int fd, const std::string& data, const std::string& path) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeJobRecord(const JobRecord& r) {
  JsonWriter json;
  json.BeginObject(JsonLayout::kCompact)
      .Key("job").Int(r.job_id).Key("outcome").String(r.outcome)
      .Key("attempts").Int(r.attempts).Key("code").String(r.code)
      .Key("msg").String(r.message).Key("released").Int(r.released)
      .Key("committed").Int(r.committed).Key("misses").Int(r.misses)
      .Key("blocking").Int(r.blocking_ticks)
      .Key("restarts").Int(r.restarts).Key("deadlocks").Int(r.deadlocks);
  return json.End().Finish();
}

StatusOr<JobRecord> DecodeJobRecord(const std::string& line) {
  JobRecord r;
  LineScanner scan(line);
  std::int64_t attempts = 0;
  const bool ok =
      scan.Literal("{\"job\":") && scan.Int(&r.job_id) &&
      scan.Literal(",\"outcome\":") && scan.QuotedString(&r.outcome) &&
      scan.Literal(",\"attempts\":") && scan.Int(&attempts) &&
      scan.Literal(",\"code\":") && scan.QuotedString(&r.code) &&
      scan.Literal(",\"msg\":") && scan.QuotedString(&r.message) &&
      scan.Literal(",\"released\":") && scan.Int(&r.released) &&
      scan.Literal(",\"committed\":") && scan.Int(&r.committed) &&
      scan.Literal(",\"misses\":") && scan.Int(&r.misses) &&
      scan.Literal(",\"blocking\":") && scan.Int(&r.blocking_ticks) &&
      scan.Literal(",\"restarts\":") && scan.Int(&r.restarts) &&
      scan.Literal(",\"deadlocks\":") && scan.Int(&r.deadlocks) &&
      scan.Literal("}") && scan.Done();
  if (!ok) {
    return Status::InvalidArgument("malformed checkpoint record: " + line);
  }
  if (r.job_id < 0 || attempts < 1 || attempts > 1'000'000) {
    return Status::InvalidArgument("implausible checkpoint record: " +
                                   line);
  }
  if (r.outcome != "ok" && r.outcome != "failed" &&
      r.outcome != "timeout" && r.outcome != "generator_defect" &&
      r.outcome != "crash") {
    return Status::InvalidArgument("unknown checkpoint outcome: " + line);
  }
  r.attempts = static_cast<int>(attempts);
  return r;
}

std::vector<CampaignJob> LoadedCheckpoint::Unrecorded(
    const std::vector<CampaignJob>& jobs) const {
  std::unordered_set<std::int64_t> recorded;
  for (const JobRecord& record : records) recorded.insert(record.job_id);
  std::vector<CampaignJob> pending;
  for (const CampaignJob& job : jobs) {
    if (recorded.count(job.id) == 0) pending.push_back(job);
  }
  return pending;
}

StatusOr<LoadedCheckpoint> LoadCheckpoint(const std::string& path,
                                          const std::string& fingerprint) {
  LoadedCheckpoint loaded;
  auto contents = ReadFileToString(path);
  if (!contents.ok()) {
    if (contents.status().code() == StatusCode::kNotFound) {
      return loaded;  // no checkpoint yet: start fresh
    }
    return contents.status();
  }
  const std::string& text = *contents;
  if (text.empty()) return loaded;  // created but never written: fresh

  // Line 1 must be an intact header matching the campaign.
  const std::size_t header_end = text.find('\n');
  if (header_end == std::string::npos) {
    // The header itself was torn; nothing is trustworthy, start fresh.
    loaded.torn_bytes = static_cast<std::int64_t>(text.size());
    return loaded;
  }
  if (text.substr(0, header_end) != HeaderLine(fingerprint)) {
    return Status::FailedPrecondition(
        StrFormat("%s belongs to a different campaign (spec fingerprint "
                  "or checkpoint version mismatch); move it aside or use "
                  "a fresh --out dir",
                  path.c_str()));
  }
  loaded.valid_bytes = static_cast<std::int64_t>(header_end + 1);

  std::size_t pos = header_end + 1;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) break;  // torn tail: no newline
    const std::string line = text.substr(pos, eol - pos);
    auto record = DecodeJobRecord(line);
    JobMark mark;
    std::int64_t job_id = 0;
    if (record.ok()) {
      loaded.records.push_back(std::move(record).value());
    } else if (DecodeJobMark(line, &mark, &job_id)) {
      if (mark == JobMark::kIntent) {
        ++loaded.unresolved_intents[job_id];
      } else {
        loaded.unresolved_intents.erase(job_id);
      }
    } else {
      break;  // torn or corrupt: drop this line and after
    }
    pos = eol + 1;
    loaded.valid_bytes = static_cast<std::int64_t>(pos);
  }
  loaded.torn_bytes =
      static_cast<std::int64_t>(text.size()) - loaded.valid_bytes;
  for (const JobRecord& record : loaded.records) {
    loaded.unresolved_intents.erase(record.job_id);
  }
  return loaded;
}

CheckpointWriter::~CheckpointWriter() { Close(); }

Status CheckpointWriter::Open(const std::string& path,
                              const std::string& fingerprint,
                              std::int64_t valid_bytes, bool fsync) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) return Status::FailedPrecondition("writer already open");
  fsync_ = fsync;
  path_ = path;
  error_ = Status::Ok();
  closing_ = false;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return Errno("open", path);
  // Cut off any torn tail (or stale contents when starting fresh) so the
  // append position is the end of the last *complete* record.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    const Status status = Errno("ftruncate", path);
    ::close(fd);
    return status;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    const Status status = Errno("lseek", path);
    ::close(fd);
    return status;
  }
  if (valid_bytes == 0) {
    const Status status = WriteAll(fd, HeaderLine(fingerprint) + "\n", path);
    if (!status.ok()) {
      ::close(fd);
      return status;
    }
  }
  fd_ = fd;
  if (fsync_) {
    // The truncation and the header ride the committer's first fsync.
    dirty_ = true;
    committer_ = std::thread([this] { CommitLoop(); });
  }
  return Status::Ok();
}

Status CheckpointWriter::Append(const JobRecord& record) {
  return WriteLine(EncodeJobRecord(record) + "\n", /*durable=*/true);
}

Status CheckpointWriter::AppendMark(JobMark mark, std::int64_t job_id) {
  return WriteLine(EncodeJobMark(mark, job_id) + "\n", /*durable=*/false);
}

Status CheckpointWriter::WriteLine(const std::string& line, bool durable) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_.ok()) return error_;
  if (fd_ < 0 || closing_) {
    return Status::FailedPrecondition("writer not open");
  }
  error_ = WriteAll(fd_, line, path_);
  if (!error_.ok()) return error_;
  if (fsync_ && durable) {
    dirty_ = true;
    unsynced_cv_.notify_one();
  }
  return Status::Ok();
}

void CheckpointWriter::CommitLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    unsynced_cv_.wait(lock, [this] { return dirty_ || closing_; });
    if (!dirty_) return;  // closing, and every written line is durable
    // Take the whole backlog: one fsync covers every line written so
    // far, and lines written while it runs wait for the next one.
    dirty_ = false;
    lock.unlock();
    const Status status =
        ::fsync(fd_) == 0 ? Status::Ok() : Errno("fsync", path_);
    lock.lock();
    if (!status.ok()) {
      if (error_.ok()) error_ = status;
      return;
    }
  }
}

Status CheckpointWriter::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0) return error_;
    closing_ = true;
  }
  unsynced_cv_.notify_one();
  if (committer_.joinable()) committer_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (::close(fd_) != 0 && error_.ok()) error_ = Errno("close", path_);
  fd_ = -1;
  return error_;
}

Status WriteFileAtomic(const std::string& path,
                       const std::string& contents) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  Status status = WriteAll(fd, contents, tmp);
  if (status.ok() && ::fsync(fd) != 0) status = Errno("fsync", tmp);
  if (::close(fd) != 0 && status.ok()) status = Errno("close", tmp);
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Errno("rename", tmp);
    ::unlink(tmp.c_str());
    return status;
  }
  return FsyncParentDir(path);
}

Status MakeDirectories(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec) return Status::Ok();
  return Status::Internal(
      StrFormat("mkdir %s: %s", dir.c_str(), ec.message().c_str()));
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace pcpda
