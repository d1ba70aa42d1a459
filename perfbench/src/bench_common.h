// Shared pieces of the DBGC benchmark (perfbench/README.md): clocks and
// percentiles, cloud/bitstream fingerprints, the span tracer, the run
// report every workload fills, and the deterministic frame catalogue.
#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bitio/byte_buffer.h"
#include "common/point_cloud.h"
#include "common/thread_pool.h"
#include "lidar/scene_generator.h"

namespace perfbench {

/// Per-dimension error bound of every workload (2 cm, the paper default).
inline constexpr double kQxyz = 0.02;
/// Capture rate of every paced sensor.
inline constexpr double kSensorHz = 10.0;
/// I/P period of the temporal path.
inline constexpr int kKeyframeInterval = 8;
/// Setups per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Monotonic wall clock in seconds.
double Now();
/// Sleeps until the monotonic time `t` (returns at once if it has passed).
void SleepUntil(double t);

/// Logs a progress line ("[perfbench 12.3s] stage") to stderr.
void Progress(const std::string& stage);

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// Order-sensitive fingerprints: equal clouds (same points, same order)
/// and equal bitstreams hash equal.
uint64_t HashCloud(const dbgc::PointCloud& pc);
uint64_t HashBytes(const uint8_t* data, size_t size);
inline uint64_t HashBytes(const dbgc::ByteBuffer& b) {
  return HashBytes(b.data(), b.size());
}
/// splitmix64 finalizer, used to derive per-drive seeds.
uint64_t Mix64(uint64_t x);

/// A JSON number with all its digits ("null" when not finite).
std::string JsonNumber(double v);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMib();

/// In-memory span recorder. Spans are recorded from the benchmark's own
/// files around calls into the library's public functions; when the
/// tracer is disabled a Span costs nothing but a branch.
class Tracer {
 public:
  struct SpanRecord {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t frame;
    double start;
    double end;
  };
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint64_t NextId() { return next_id_.fetch_add(1); }
  void Record(const SpanRecord& span);
  size_t size() const;
  /// Writes one JSON object per span (name, id, parent, frame, start_s,
  /// end_s) to `path`. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // Guarded by mutex_.
};

/// RAII span: times its scope and records it, with the innermost open span
/// of the same thread as its parent. `frame` ties spans of one frame. When
/// `out_ms` is set the duration is also stored there, traced or not, so a
/// call site needs one timer for its own bookkeeping and the trace.
class Span {
 public:
  Span(Tracer& tracer, const char* name, uint64_t frame = 0,
       double* out_ms = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  uint64_t frame_;
  double* out_ms_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  double start_ = 0.0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: the end-to-end and per-layer metrics, the
/// run record (catalogue, thread counts, sample counts) and the
/// correctness verdict.
struct RunReport {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Run-record entries: key -> JSON value text.
  std::vector<std::pair<std::string, std::string>> record;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness misses, one line each.
  std::vector<std::string> misses;
  /// Set when the load generator fell behind its schedule.
  std::string invalid_reason;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  /// Sets a per-layer metric unless an earlier (live-path) value exists.
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.emplace(name, Metric{value, unit});
  }
  void Record(const std::string& key, const std::string& json_value) {
    record.emplace_back(key, json_value);
  }
  /// Records a percentile's sample count in the run record.
  void Samples(const std::string& metric, size_t n) {
    Record("samples." + metric, std::to_string(n));
  }
  void Miss(const std::string& what);
};

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_out;  // Where the traced run writes its spans.
  std::string git_revision = "unknown";
};

/// What every workload runs with: one pool of `nproc` workers shared by
/// the codec, the pipeline and the session manager.
struct BenchContext {
  Args args;
  int nproc = 1;
  dbgc::ThreadPool* pool = nullptr;
  Tracer* tracer = nullptr;
  RunReport* report = nullptr;
};

/// One pre-generated drive of the catalogue: consecutive pose-stamped
/// HDL-64E frames of one scene family.
struct Drive {
  dbgc::SceneType family = dbgc::SceneType::kCity;
  uint64_t seed = 0;
  std::vector<dbgc::StreamFrame> frames;
};

/// A drive to generate: family and generator seed.
struct DriveSpec {
  dbgc::SceneType family;
  uint64_t seed;
};

/// A replayed sequence of frames: the frames of one or more drives, in
/// order. Points into the drives it was made from.
using Lap = std::vector<const dbgc::StreamFrame*>;
Lap LapOf(const std::vector<Drive>& drives);

/// The seed of drive `index` of a workload run with `run_seed`.
uint64_t DriveSeed(uint64_t run_seed, uint64_t index);

/// Generates every drive with `frames_per_drive` frames, one pool task per
/// drive. Appends the per-frame generation time (ms) to `frame_ms`.
std::vector<Drive> GenerateDrives(const std::vector<DriveSpec>& specs,
                                  size_t frames_per_drive,
                                  dbgc::ThreadPool* pool,
                                  std::vector<double>* frame_ms);

/// Fingerprint of a catalogue (every point of every frame, plus poses).
uint64_t HashDrives(const std::vector<Drive>& drives);

/// Adds the catalogue (family, seed, frame count, points per frame) to the
/// run record.
void RecordCatalogue(const std::vector<Drive>& drives, RunReport* report);

/// Runs `setup` kSetupReps times, keeping the last result. Each setup is
/// timed; setup_s is their median. Every repetition must fingerprint
/// equal to the first (the inputs are a pure function of the seed).
template <typename T>
T RepeatedSetup(const std::function<T()>& setup,
                const std::function<uint64_t(const T&)>& fingerprint,
                RunReport* report) {
  std::vector<double> seconds;
  T kept;
  uint64_t first = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    kept = T();  // Release the previous copy before building the next.
    const double t0 = Now();
    kept = setup();
    seconds.push_back(Now() - t0);
    const uint64_t fp = fingerprint(kept);
    if (rep == 0) {
      first = fp;
    } else if (fp != first) {
      report->Miss("setup repetition " + std::to_string(rep) +
                   " produced different inputs from the same seed");
    }
  }
  report->E2e("setup_s", Quantile(seconds, 0.5), "s");
  report->Samples("setup_s", seconds.size());
  return kept;
}

/// Per-frame latency summary into the end-to-end metrics.
void ReportLatency(const std::vector<double>& frame_ms, RunReport* report);

/// Runs fn(i) for every i in [0, n) on the context's pool, one index per
/// task. `fn` must touch only state private to its index.
void ParallelEach(BenchContext& ctx, size_t n,
                  const std::function<void(size_t)>& fn);

/// The serial DBGC reference of one frame, taken outside any timed region:
/// compressed with the point mapping and decompressed. `ok` holds the
/// point-wise contract: the point count is kept and the largest mapped
/// error is at most sqrt(3) q.
struct IntraReference {
  bool ok = false;
  uint64_t bits_hash = 0;
  uint64_t cloud_hash = 0;
  double psnr_db = 0.0;
};
IntraReference CheckIntra(const dbgc::PointCloud& pc);

/// Marks the run invalid when the paced generator ran late: its p95
/// lateness against the schedule exceeds kMaxLateMs.
inline constexpr double kMaxLateMs = 10.0;
void CheckGeneratorLate(const std::vector<double>& late_ms, RunReport* report);

/// One untimed DBGC round trip on the shared pool, so allocator caches and
/// lazily created state are warm before the first timed frame.
void WarmUp(BenchContext& ctx, const dbgc::PointCloud& frame);

/// Workload entry points (drive_intra.cc, fleet_10hz.cc, stream_path.cc).
void RunDriveIntra(BenchContext& ctx);
void RunFleet10Hz(BenchContext& ctx);
void RunTemporalDrive(BenchContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
