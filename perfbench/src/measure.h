// Timing, sampling, memory and host helpers shared by every phase of the
// benchmark program.

#ifndef TWIMOB_PERFBENCH_MEASURE_H_
#define TWIMOB_PERFBENCH_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds since an arbitrary process-local origin.
double Now();

/// A bag of samples of one quantity. Every end-to-end metric is a median
/// or percentile over one of these, never a single shot.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  /// Median (mean of the two middle values for an even count); 0 if empty.
  double Median() const;
  /// Nearest-rank percentile, q in (0, 1]; 0 if empty.
  double Percentile(double q) const;
  double Max() const;

 private:
  std::vector<double> values_;
};

/// Peak resident set size of the process so far (VmHWM), MiB.
double PeakRssMb();
/// Current resident set size of the process, MiB.
double CurrentRssMb();
/// User + system CPU seconds the process has consumed so far.
double ProcessCpuSeconds();

/// Where a result was measured. Numbers from different hosts are never
/// compared.
struct Host {
  std::string cpu_model;
  size_t nproc = 1;
  std::string isa;           ///< kernel dispatch, from GetCpuFeatures()
  std::string force_scalar;  ///< TWIMOB_FORCE_SCALAR as set ("" if unset)
};
Host DetectHost();

/// Thread budget: pool workers + calling threads + client threads never
/// exceed nproc. ThreadPool(n) and AnalysisContext(n) run n workers and
/// the calling thread helps drain ParallelFor, so an n-worker call keeps
/// n + 1 threads runnable.
struct Budget {
  size_t nproc = 1;
  /// Workers of the N-worker analysis context and the compaction pool.
  size_t open_workers = 1;
  /// Closed-loop client threads of the serving loop.
  size_t clients = 1;
  /// Workers of the what-if sweep pool shared by those clients.
  size_t whatif_workers = 1;
};
Budget MakeBudget(size_t nproc);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics by name, in name order.
using MetricMap = std::map<std::string, Metric>;

/// Formats a double with every significant digit (JSON-safe; non-finite
/// values print as null).
std::string JsonNumber(double v);
/// Quotes and escapes a string for JSON.
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // TWIMOB_PERFBENCH_MEASURE_H_
