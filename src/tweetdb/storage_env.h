#ifndef TWIMOB_TWEETDB_STORAGE_ENV_H_
#define TWIMOB_TWEETDB_STORAGE_ENV_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "random/rng.h"

namespace twimob::tweetdb {

/// Durability and retry knobs for the storage write paths. Every dataset
/// write goes through AtomicWriteFile, which honours these.
struct WriteOptions {
  /// fsync file contents before the atomic rename (crash consistency; turn
  /// off only for throwaway temp data).
  bool sync = true;
  /// How many times a transient (Status::Unavailable) failure is retried
  /// before the write gives up. Non-transient errors never retry.
  int max_retries = 3;
  /// First retry backoff; doubles per retry, each wait jittered to
  /// [0.5x, 1.5x] so synchronized writers fan out.
  double backoff_base_ms = 1.0;
  /// Seeds the backoff jitter (random::Xoshiro256 — deterministic).
  uint64_t jitter_seed = 0x7477696d6f62u;  // "twimob"
};

/// A sequentially written file. Append-only; callers Sync before Close
/// when the bytes must survive a crash.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// A read-only file supporting positional reads.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  /// Reads up to `n` bytes at `offset` into `*out` (replaced). Fewer than
  /// `n` bytes come back only at end of file.
  virtual Status Read(uint64_t offset, size_t n, std::string* out) const = 0;
  /// File size in bytes.
  virtual Result<uint64_t> Size() const = 0;
};

/// The file-system abstraction every dataset read/write path goes through.
/// Production uses Env::Default() (POSIX); tests substitute a
/// FaultInjectionEnv to prove crash consistency deterministically.
/// Implementations must be safe for concurrent use unless documented
/// otherwise (FaultInjectionEnv plan mode is single-threaded; its schedule
/// mode is thread-safe).
class Env {
 public:
  virtual ~Env() = default;

  /// Opens `path` for writing, truncating any existing file.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;

  /// Opens `path` for positional reads.
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;

  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  /// Deletes `path`.
  virtual Status RemoveFile(const std::string& path) = 0;

  /// True when `path` exists.
  virtual bool FileExists(const std::string& path) = 0;

  /// Sleeps ~`ms` milliseconds (retry backoff). FaultInjectionEnv records
  /// instead of sleeping so fault sweeps stay fast.
  virtual void SleepForMs(double ms);

  /// The process-wide POSIX environment.
  static Env* Default();
};

/// Reads the whole file into a string. Retries transient (Unavailable)
/// errors up to `max_retries` times without backoff (reads are cheap).
Result<std::string> ReadFileToString(Env& env, const std::string& path,
                                     int max_retries = 3);

/// The sibling temp path used by AtomicWriteFile ("<path>.tmp").
std::string TempPathFor(const std::string& path);

/// The crash-consistency primitive: writes `data` to TempPathFor(path),
/// syncs (per `options`), and atomically renames over `path` — a crash at
/// any point leaves either the old file or the new one, never a torn
/// hybrid. Transient (Unavailable) failures retry the whole sequence with
/// bounded, jittered exponential backoff per `options`.
Status AtomicWriteFile(Env& env, const std::string& path, std::string_view data,
                       const WriteOptions& options = {});

/// Deterministic fault-injecting Env for crash-consistency proofs.
///
/// Every gated operation (NewWritableFile, Append, Sync, Close,
/// NewRandomAccessFile, Read, RenameFile, RemoveFile) increments an
/// operation counter; the plan picks one index to fault. Faults:
///
///   kCrash     — the operation fails without side effects and the env
///                "goes down": every later operation fails too, modelling
///                process death mid-write.
///   kTornWrite — the faulted Append persists only a seed-chosen prefix of
///                its bytes, then the env crashes (a torn page).
///   kShortRead — the faulted Read returns a seed-chosen prefix as
///                success (a truncated read the decoder must catch).
///   kTransient — the faulted operation (and the next transient_failures-1
///                operations) fail with Status::Unavailable; retries
///                succeed. Exercises the WriteOptions retry budget.
///   kNoSpace   — the faulted write-side operation (open/append/sync/
///                close/rename) fails with Status::ResourceExhausted like
///                ENOSPC, with no side effects; the env stays up.
///   kLatency   — the faulted operation succeeds but the injected latency
///                is recorded (never actually slept, so sweeps stay fast);
///                only meaningful in schedule mode.
///
/// Two driving modes:
///
///   * Plan mode (set_plan): crash-at-Nth-op sweeps. Single-threaded by
///     design — the torn-write/short-read byte-tearing draws from the env
///     RNG outside the gate lock.
///   * Schedule mode (set_schedule): deterministic *sustained* fault
///     windows over the gated-operation index space — seeded transient
///     bursts, ENOSPC windows that later clear, injected I/O latency. No
///     crashes and no tearing, and the gate is mutex-guarded, so schedules
///     are safe to drive from concurrent readers/writers (the chaos
///     harness and the TSan stress tests rely on this).
///
/// Reuse via set_plan / set_schedule, which reset counter and crash state.
/// FileExists and Size are queries and are not gated.
class FaultInjectionEnv : public Env {
 public:
  enum class FaultKind {
    kNone,
    kCrash,
    kTornWrite,
    kShortRead,
    kTransient,
    kNoSpace,
    kLatency,
  };

  struct FaultPlan {
    FaultKind kind = FaultKind::kNone;
    uint64_t at_operation = 0;    ///< 0-based gated-operation index to fault
    int transient_failures = 1;   ///< consecutive Unavailable results (kTransient)
  };

  /// One deterministic fault window: gated operations with index in
  /// [begin_op, end_op) behave per `kind` (kTransient, kNoSpace or
  /// kLatency; other kinds are inert in schedule mode).
  struct FaultWindow {
    FaultKind kind = FaultKind::kNone;
    uint64_t begin_op = 0;
    uint64_t end_op = 0;
    double latency_ms = 1.0;  ///< per-op injected latency (kLatency only)
  };

  /// An ordered set of fault windows; the first window containing an op
  /// index wins. Ops outside every window behave normally — an ENOSPC
  /// window "clears" simply by ending.
  struct FaultSchedule {
    std::vector<FaultWindow> windows;

    /// Seeded helper: `bursts` windows of `kind`, each starting at a
    /// random op index in [0, span_ops) and lasting 1..max_burst_ops ops.
    /// Deterministic for a given seed.
    static FaultSchedule Bursts(FaultKind kind, uint64_t seed, int bursts,
                                uint64_t span_ops, uint64_t max_burst_ops,
                                double latency_ms = 1.0);
  };

  explicit FaultInjectionEnv(Env* base, uint64_t seed = 20150413);

  /// Installs a plan and resets the operation counter, crash flag, schedule
  /// and RNG (reseeded so the same plan + seed replays identically).
  void set_plan(const FaultPlan& plan);

  /// Installs a fault schedule and resets the operation counter, crash
  /// flag, plan and RNG. An empty schedule makes the env transparent.
  void set_schedule(FaultSchedule schedule);

  /// Gated operations performed since the last set_plan/set_schedule.
  uint64_t operations() const;
  /// Total backoff requested via SleepForMs (never actually slept).
  double slept_ms() const;
  /// Total kLatency-window latency recorded by the gate (never slept).
  double injected_latency_ms() const;
  /// Operations that were failed or delayed by a plan or schedule fault.
  uint64_t faults_injected() const;
  /// True once a kCrash/kTornWrite fault fired.
  bool crashed() const;

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  void SleepForMs(double ms) override;

 private:
  friend class FaultWritableFile;
  friend class FaultRandomAccessFile;

  enum class Op { kOpen, kAppend, kSync, kClose, kRead, kRename, kRemove };

  /// Counts one gated operation; returns the injected error when the plan
  /// or schedule says so. `tear` is set when this operation must tear
  /// (kTornWrite on an Append / kShortRead on a Read; plan mode only).
  Status Gate(Op op, bool* tear);

  Env* base_;
  uint64_t seed_;
  random::Xoshiro256 rng_;
  mutable std::mutex mu_;
  FaultPlan plan_;
  FaultSchedule schedule_;
  uint64_t operations_ = 0;
  int transient_left_ = 0;
  bool crashed_ = false;
  double slept_ms_ = 0.0;
  double injected_latency_ms_ = 0.0;
  uint64_t faults_injected_ = 0;
};

}  // namespace twimob::tweetdb

#endif  // TWIMOB_TWEETDB_STORAGE_ENV_H_
