#include "tweetdb/storage_env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "common/string_util.h"

namespace twimob::tweetdb {

namespace {

Status ErrnoError(const char* what, const std::string& path) {
  const int err = errno;
  std::string msg = StrFormat("%s %s: %s", what, path.c_str(), std::strerror(err));
  // A full disk is a sustained capacity failure, not a generic I/O error:
  // the ingest writer parks itself in degraded mode on this code.
  if (err == ENOSPC || err == EDQUOT) {
    return Status::ResourceExhausted(std::move(msg));
  }
  return Status::IOError(std::move(msg));
}

// ---------------------------------------------------------------------------
// POSIX implementation.

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::string_view data) override {
    if (file_ == nullptr) return Status::IOError("append on closed file: " + path_);
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return ErrnoError("write failed", path_);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (file_ == nullptr) return Status::IOError("sync on closed file: " + path_);
    if (std::fflush(file_) != 0) return ErrnoError("flush failed", path_);
    if (::fsync(::fileno(file_)) != 0) return ErrnoError("fsync failed", path_);
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::IOError("double close: " + path_);
    std::FILE* f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0) return ErrnoError("close failed", path_);
    return Status::OK();
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    out->clear();
    out->resize(n);
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::pread(fd_, out->data() + got, n - got,
                                static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoError("read failed", path_);
      }
      if (r == 0) break;  // end of file
      got += static_cast<size_t>(r);
    }
    out->resize(got);
    return Status::OK();
  }

  Result<uint64_t> Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return ErrnoError("stat failed", path_);
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return ErrnoError("cannot open for writing", path);
    return std::unique_ptr<WritableFile>(new PosixWritableFile(f, path));
  }

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoError("cannot open for reading", path);
    return std::unique_ptr<RandomAccessFile>(new PosixRandomAccessFile(fd, path));
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoError("rename failed", from + " -> " + to);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) return ErrnoError("remove failed", path);
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }
};

/// One attempt of the tmp+sync+rename protocol (no retry).
Status AtomicWriteOnce(Env& env, const std::string& path, std::string_view data,
                       bool sync) {
  const std::string tmp = TempPathFor(path);
  auto file = env.NewWritableFile(tmp);
  if (!file.ok()) return file.status();
  Status s = (*file)->Append(data);
  if (s.ok() && sync) s = (*file)->Sync();
  if (s.ok()) {
    s = (*file)->Close();
  } else {
    (void)(*file)->Close();  // keep the first error
  }
  if (s.ok()) s = env.RenameFile(tmp, path);
  if (!s.ok()) (void)env.RemoveFile(tmp);  // best-effort cleanup
  return s;
}

}  // namespace

void Env::SleepForMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

Result<std::string> ReadFileToString(Env& env, const std::string& path,
                                     int max_retries) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    auto file = env.NewRandomAccessFile(path);
    if (!file.ok()) {
      last = file.status();
    } else {
      auto size = (*file)->Size();
      if (!size.ok()) {
        last = size.status();
      } else {
        std::string out;
        last = (*file)->Read(0, static_cast<size_t>(*size), &out);
        if (last.ok()) return out;
      }
    }
    if (!last.IsUnavailable()) return last;
  }
  return last;
}

std::string TempPathFor(const std::string& path) { return path + ".tmp"; }

Status AtomicWriteFile(Env& env, const std::string& path, std::string_view data,
                       const WriteOptions& options) {
  random::Xoshiro256 jitter(options.jitter_seed);
  for (int attempt = 0;; ++attempt) {
    const Status s = AtomicWriteOnce(env, path, data, options.sync);
    if (s.ok() || !s.IsUnavailable() || attempt >= options.max_retries) return s;
    // Exponential backoff, jittered to [0.5x, 1.5x), exponent capped so the
    // wait stays bounded however large the retry budget.
    const double factor = static_cast<double>(uint64_t{1} << std::min(attempt, 20));
    env.SleepForMs(options.backoff_base_ms * factor * (0.5 + jitter.NextDouble()));
  }
}

// ---------------------------------------------------------------------------
// Fault injection. The wrappers live in the library namespace (not an
// anonymous one) so the FaultInjectionEnv friend declarations apply.

class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(std::unique_ptr<WritableFile> base, FaultInjectionEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Close() override;

 private:
  std::unique_ptr<WritableFile> base_;
  FaultInjectionEnv* env_;
};

class FaultRandomAccessFile : public RandomAccessFile {
 public:
  FaultRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                        FaultInjectionEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override;
  Result<uint64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  FaultInjectionEnv* env_;
};

FaultInjectionEnv::FaultInjectionEnv(Env* base, uint64_t seed)
    : base_(base), seed_(seed), rng_(seed) {}

void FaultInjectionEnv::set_plan(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  schedule_ = FaultSchedule{};
  operations_ = 0;
  transient_left_ = 0;
  crashed_ = false;
  slept_ms_ = 0.0;
  injected_latency_ms_ = 0.0;
  faults_injected_ = 0;
  rng_ = random::Xoshiro256(seed_);
}

void FaultInjectionEnv::set_schedule(FaultSchedule schedule) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = FaultPlan{};
  schedule_ = std::move(schedule);
  operations_ = 0;
  transient_left_ = 0;
  crashed_ = false;
  slept_ms_ = 0.0;
  injected_latency_ms_ = 0.0;
  faults_injected_ = 0;
  rng_ = random::Xoshiro256(seed_);
}

uint64_t FaultInjectionEnv::operations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return operations_;
}

double FaultInjectionEnv::slept_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slept_ms_;
}

double FaultInjectionEnv::injected_latency_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_latency_ms_;
}

uint64_t FaultInjectionEnv::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_injected_;
}

bool FaultInjectionEnv::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

void FaultInjectionEnv::SleepForMs(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  slept_ms_ += ms;
}

FaultInjectionEnv::FaultSchedule FaultInjectionEnv::FaultSchedule::Bursts(
    FaultKind kind, uint64_t seed, int bursts, uint64_t span_ops,
    uint64_t max_burst_ops, double latency_ms) {
  FaultSchedule schedule;
  random::Xoshiro256 rng(seed);
  schedule.windows.reserve(bursts > 0 ? static_cast<size_t>(bursts) : 0);
  for (int i = 0; i < bursts; ++i) {
    FaultWindow window;
    window.kind = kind;
    window.begin_op = span_ops == 0 ? 0 : rng.NextUint64(span_ops);
    const uint64_t len =
        max_burst_ops == 0 ? 1 : 1 + rng.NextUint64(max_burst_ops);
    window.end_op = window.begin_op + len;
    window.latency_ms = latency_ms;
    schedule.windows.push_back(window);
  }
  return schedule;
}

Status FaultInjectionEnv::Gate(Op op, bool* tear) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t index = operations_++;
  if (crashed_) {
    return Status::IOError(
        StrFormat("injected crash: env is down (op %llu)",
                  static_cast<unsigned long long>(index)));
  }
  if (transient_left_ > 0) {
    --transient_left_;
    ++faults_injected_;
    return Status::Unavailable("injected transient I/O error (continued)");
  }
  if (!schedule_.windows.empty()) {
    for (const FaultWindow& window : schedule_.windows) {
      if (index < window.begin_op || index >= window.end_op) continue;
      switch (window.kind) {
        case FaultKind::kTransient:
          ++faults_injected_;
          return Status::Unavailable(
              StrFormat("injected transient I/O error (window op %llu)",
                        static_cast<unsigned long long>(index)));
        case FaultKind::kNoSpace:
          if (op == Op::kRead || op == Op::kRemove) break;
          ++faults_injected_;
          return Status::ResourceExhausted(
              "no space left on device (injected ENOSPC window)");
        case FaultKind::kLatency:
          ++faults_injected_;
          injected_latency_ms_ += window.latency_ms;
          break;  // the operation itself succeeds, just "slower"
        default:
          break;  // crash/tear kinds are inert in schedule mode
      }
      break;  // first matching window wins
    }
    return Status::OK();
  }
  if (plan_.kind == FaultKind::kNone || index != plan_.at_operation) {
    return Status::OK();
  }
  switch (plan_.kind) {
    case FaultKind::kNone:
    case FaultKind::kLatency:
      return Status::OK();
    case FaultKind::kCrash:
      crashed_ = true;
      ++faults_injected_;
      return Status::IOError(
          StrFormat("injected crash at op %llu",
                    static_cast<unsigned long long>(index)));
    case FaultKind::kTornWrite:
      crashed_ = true;
      ++faults_injected_;
      if (op == Op::kAppend && tear != nullptr) {
        *tear = true;       // the append persists a prefix, then the env dies
        return Status::OK();
      }
      return Status::IOError(
          StrFormat("injected crash (torn-write plan) at op %llu",
                    static_cast<unsigned long long>(index)));
    case FaultKind::kShortRead:
      if (op == Op::kRead && tear != nullptr) *tear = true;
      ++faults_injected_;
      return Status::OK();
    case FaultKind::kTransient:
      transient_left_ = plan_.transient_failures - 1;
      ++faults_injected_;
      return Status::Unavailable("injected transient I/O error");
    case FaultKind::kNoSpace:
      if (op == Op::kRead || op == Op::kRemove) return Status::OK();
      ++faults_injected_;
      return Status::ResourceExhausted("no space left on device (injected ENOSPC)");
  }
  return Status::OK();
}

Status FaultWritableFile::Append(std::string_view data) {
  bool tear = false;
  TWIMOB_RETURN_IF_ERROR(env_->Gate(FaultInjectionEnv::Op::kAppend, &tear));
  if (tear) {
    // Persist a seed-chosen strict prefix — a torn page — then report the
    // crash. Sync so the torn bytes are what a reopen actually sees.
    const size_t keep =
        data.empty() ? 0 : static_cast<size_t>(env_->rng_.NextUint64(data.size()));
    Status s = base_->Append(data.substr(0, keep));
    if (s.ok()) s = base_->Sync();
    if (!s.ok()) return s;
    return Status::IOError(
        StrFormat("injected torn write: %zu of %zu bytes persisted", keep,
                  data.size()));
  }
  return base_->Append(data);
}

Status FaultWritableFile::Sync() {
  TWIMOB_RETURN_IF_ERROR(env_->Gate(FaultInjectionEnv::Op::kSync, nullptr));
  return base_->Sync();
}

Status FaultWritableFile::Close() {
  TWIMOB_RETURN_IF_ERROR(env_->Gate(FaultInjectionEnv::Op::kClose, nullptr));
  return base_->Close();
}

Status FaultRandomAccessFile::Read(uint64_t offset, size_t n,
                                   std::string* out) const {
  bool tear = false;
  TWIMOB_RETURN_IF_ERROR(env_->Gate(FaultInjectionEnv::Op::kRead, &tear));
  TWIMOB_RETURN_IF_ERROR(base_->Read(offset, n, out));
  if (tear && !out->empty()) {
    out->resize(static_cast<size_t>(env_->rng_.NextUint64(out->size())));
  }
  return Status::OK();
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path) {
  TWIMOB_RETURN_IF_ERROR(Gate(Op::kOpen, nullptr));
  auto base = base_->NewWritableFile(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      new FaultWritableFile(std::move(*base), this));
}

Result<std::unique_ptr<RandomAccessFile>> FaultInjectionEnv::NewRandomAccessFile(
    const std::string& path) {
  TWIMOB_RETURN_IF_ERROR(Gate(Op::kOpen, nullptr));
  auto base = base_->NewRandomAccessFile(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<RandomAccessFile>(
      new FaultRandomAccessFile(std::move(*base), this));
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  TWIMOB_RETURN_IF_ERROR(Gate(Op::kRename, nullptr));
  return base_->RenameFile(from, to);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  TWIMOB_RETURN_IF_ERROR(Gate(Op::kRemove, nullptr));
  return base_->RemoveFile(path);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

}  // namespace twimob::tweetdb
