#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "core/dbgc_codec.h"
#include "core/error_metrics.h"

namespace perfbench {

namespace {

// Innermost open span of the calling thread (0 = none): the parent of the
// next span opened on it.
thread_local uint64_t t_current_span = 0;

uint64_t HashWord(uint64_t h, uint64_t word) {
  return Mix64(h ^ (word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

void Progress(const std::string& stage) {
  static const double start = Now();
  std::fprintf(stderr, "[perfbench %6.1fs] %s\n", Now() - start, stage.c_str());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashCloud(const dbgc::PointCloud& pc) {
  uint64_t h = pc.size();
  for (const dbgc::Point3& p : pc) {
    h = HashWord(h, DoubleBits(p.x) ^ (DoubleBits(p.y) * 31) ^
                        (DoubleBits(p.z) * 1000003));
  }
  return h;
}

uint64_t HashBytes(const uint8_t* data, size_t size) {
  uint64_t h = size;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    h = HashWord(h, word);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, data + i, size - i);
  return HashWord(h, tail);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"frame\": %llu, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.frame), s.start, s.end);
  }
  return std::fclose(f) == 0;
}

Span::Span(Tracer& tracer, const char* name, uint64_t frame, double* out_ms)
    : tracer_(tracer), name_(name), frame_(frame), out_ms_(out_ms) {
  if (tracer_.enabled()) {
    id_ = tracer_.NextId();
    parent_ = t_current_span;
    t_current_span = id_;
  }
  if (tracer_.enabled() || out_ms_ != nullptr) start_ = Now();
}

Span::~Span() {
  if (!tracer_.enabled() && out_ms_ == nullptr) return;
  const double end = Now();
  if (out_ms_ != nullptr) *out_ms_ = (end - start_) * 1e3;
  if (!tracer_.enabled()) return;
  t_current_span = parent_;
  tracer_.Record({name_, id_, parent_, frame_, start_, end});
}

void RunReport::Miss(const std::string& what) {
  if (misses.size() < 32) misses.push_back(what);
  else if (misses.size() == 32) misses.push_back("... further misses elided");
}

Lap LapOf(const std::vector<Drive>& drives) {
  Lap lap;
  for (const Drive& d : drives) {
    for (const dbgc::StreamFrame& f : d.frames) lap.push_back(&f);
  }
  return lap;
}

uint64_t DriveSeed(uint64_t run_seed, uint64_t index) {
  return Mix64(run_seed * 0x100000001b3ULL + index) & 0xffffffffULL;
}

std::vector<Drive> GenerateDrives(const std::vector<DriveSpec>& specs,
                                  size_t frames_per_drive,
                                  dbgc::ThreadPool* pool,
                                  std::vector<double>* frame_ms) {
  std::vector<Drive> drives(specs.size());
  std::vector<double> drive_seconds(specs.size(), 0.0);
  const dbgc::Status status = pool->ParallelFor(
      0, specs.size(), 1, [&](size_t lo, size_t hi) {
        for (size_t d = lo; d < hi; ++d) {
          const double t0 = Now();
          drives[d].family = specs[d].family;
          drives[d].seed = specs[d].seed;
          drives[d].frames =
              dbgc::SceneGenerator(specs[d].family, specs[d].seed)
                  .GenerateSequence(frames_per_drive);
          drive_seconds[d] = Now() - t0;
        }
      });
  if (!status.ok()) std::abort();  // Generation never throws.
  for (double s : drive_seconds) {
    frame_ms->push_back(s * 1e3 / static_cast<double>(frames_per_drive));
  }
  return drives;
}

uint64_t HashDrives(const std::vector<Drive>& drives) {
  uint64_t h = drives.size();
  for (const Drive& d : drives) {
    for (const dbgc::StreamFrame& f : d.frames) {
      h = HashWord(h, HashCloud(f.cloud));
      h = HashWord(h, DoubleBits(f.pose.yaw) ^
                          DoubleBits(f.pose.translation.x) ^
                          (DoubleBits(f.pose.translation.y) * 31));
    }
  }
  return h;
}

void RecordCatalogue(const std::vector<Drive>& drives, RunReport* report) {
  std::string json = "[";
  for (size_t d = 0; d < drives.size(); ++d) {
    const Drive& drive = drives[d];
    json += (d ? ", " : "");
    json += "{\"family\": \"" + dbgc::SceneTypeName(drive.family) +
            "\", \"seed\": " + std::to_string(drive.seed) +
            ", \"frames\": " + std::to_string(drive.frames.size()) +
            ", \"points\": [";
    for (size_t i = 0; i < drive.frames.size(); ++i) {
      json += (i ? ", " : "") + std::to_string(drive.frames[i].cloud.size());
    }
    json += "]}";
  }
  report->Record("catalogue", json + "]");
}

void ReportLatency(const std::vector<double>& frame_ms, RunReport* report) {
  report->E2e("frame_ms_p50", Quantile(frame_ms, 0.5), "ms");
  report->E2e("frame_ms_p95", Quantile(frame_ms, 0.95), "ms");
  report->Samples("frame_ms", frame_ms.size());
}

void ParallelEach(BenchContext& ctx, size_t n,
                  const std::function<void(size_t)>& fn) {
  const dbgc::Status status =
      ctx.pool->ParallelFor(0, n, 1, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) fn(i);
      });
  if (!status.ok()) std::abort();  // The bodies never throw.
}

IntraReference CheckIntra(const dbgc::PointCloud& pc) {
  IntraReference ref;
  const dbgc::DbgcCodec codec;
  dbgc::CompressStats stats;
  stats.record_point_mapping = true;
  dbgc::CompressParams params;
  params.q_xyz = kQxyz;
  params.info = &stats;
  dbgc::Result<dbgc::ByteBuffer> bits = codec.Compress(pc, params);
  if (!bits.ok()) return ref;
  dbgc::Result<dbgc::PointCloud> out = codec.Decompress(bits.value());
  if (!out.ok()) return ref;
  dbgc::Result<dbgc::ErrorStats> err =
      dbgc::MappedError(pc, out.value(), stats.point_mapping);
  ref.ok = err.ok() && out.value().size() == pc.size() &&
           err.value().max_euclidean <= std::sqrt(3.0) * kQxyz * (1 + 1e-9);
  ref.bits_hash = HashBytes(bits.value());
  ref.cloud_hash = HashCloud(out.value());
  ref.psnr_db = dbgc::D1Psnr(pc, out.value());
  return ref;
}

void CheckGeneratorLate(const std::vector<double>& late_ms,
                        RunReport* report) {
  const double p95 = Quantile(late_ms, 0.95);
  if (p95 > kMaxLateMs) {
    report->invalid_reason = "load generator fell behind its schedule: p95 "
                             "lateness " + std::to_string(p95) + " ms";
  }
}

void WarmUp(BenchContext& ctx, const dbgc::PointCloud& frame) {
  const dbgc::DbgcCodec codec;
  dbgc::CompressParams params;
  params.q_xyz = kQxyz;
  params.pool = ctx.pool;
  dbgc::Result<dbgc::ByteBuffer> bits = codec.Compress(frame, params);
  if (bits.ok()) {
    dbgc::DecompressParams dparams;
    dparams.pool = ctx.pool;
    (void)codec.Decompress(bits.value(), dparams);
  }
}

}  // namespace perfbench
