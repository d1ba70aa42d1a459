// dbgc_perfbench: one run of one benchmark workload (perfbench/README.md).
//
//   dbgc_perfbench --workload drive_intra|fleet_10hz|temporal_drive
//                  --seed N --seconds S --trace 0|1
//                  [--span-out FILE] [--git-revision REV]
//
// Prints the run record, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 on any
// correctness miss, 2 when the load generator fell behind its schedule,
// and 64 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench_common.h"

namespace perfbench {
namespace {

constexpr const char* kEndToEnd[] = {
    "setup_s",         "frame_ms_p50",   "frame_ms_p95",
    "frames_per_s",    "bpp",            "d1_psnr_db",
    "delivered_frac",  "undegraded_frac", "sustained_sensors_per_core",
    "peak_rss_mib"};

constexpr const char* kPerLayer[] = {
    "den.encode_ms", "oct.encode_ms", "oct.decode_ms", "cor.encode_ms",
    "cor.decode_ms", "org.encode_ms", "spa.encode_ms", "spa.decode_ms",
    "out.encode_ms", "out.decode_ms", "dbgc.encode_ms", "dbgc.decode_ms",
    "dbgc.stage_coverage", "dbgc.bytes_dense", "dbgc.bytes_sparse",
    "dbgc.bytes_outlier", "dbgc.dense_frac", "dbgc.outlier_frac",
    "pool.encode_speedup", "pool.decode_speedup", "pool.busy_frac",
    "temporal.i_encode_ms", "temporal.p_encode_ms", "temporal.p_decode_ms",
    "temporal.i_bytes", "temporal.p_bytes", "temporal.p_over_rangeimage_bytes",
    "pipeline.submit_block_ms", "pipeline.result_wait_ms",
    "proto.serialize_us", "proto.parse_us", "session.submit_us_p95",
    "session.queue_wait_ms_p50", "session.queue_wait_ms_p95",
    "session.decode_ms_p95", "session.reject_frac.global_budget",
    "session.reject_frac.session_share", "session.inflight_mean",
    "session.latest_cloud_us_p95", "store.evicted_frac", "lidar.generate_ms",
    "gen.late_ms_p95", "trace.frame_ms_p50", "trace.span_cost_us"};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: dbgc_perfbench --workload "
               "drive_intra|fleet_10hz|temporal_drive --seed N --seconds S "
               "--trace 0|1 [--span-out FILE] [--git-revision REV]\n",
               msg);
  return 64;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") args->workload = value;
    else if (key == "--seed") args->seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") args->seconds = std::strtod(value, nullptr);
    else if (key == "--trace") args->trace = std::strcmp(value, "1") == 0;
    else if (key == "--span-out") args->span_out = value;
    else if (key == "--git-revision") args->git_revision = value;
    else return false;
  }
  return argc % 2 == 1 && args->seconds >= 1.0 && args->seconds <= 600.0;
}

/// Cost of one recorded span, measured on a private tracer.
double SpanCostUs() {
  Tracer tracer(true);
  constexpr int kSpans = 20000;
  const double t0 = Now();
  for (int i = 0; i < kSpans; ++i) Span span(tracer, "calibration");
  return (Now() - t0) * 1e6 / kSpans;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Prints the result line: the verdict, the counts and `metrics`.
void PrintResult(const RunReport& report, bool correct,
                 const std::map<std::string, Metric>& metrics) {
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            JsonNumber(metric.value) + ", \"unit\": " + JsonString(metric.unit) +
            "}";
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  void (*workload)(BenchContext&) = nullptr;
  if (args.workload == "drive_intra") workload = RunDriveIntra;
  else if (args.workload == "fleet_10hz") workload = RunFleet10Hz;
  else if (args.workload == "temporal_drive") workload = RunTemporalDrive;
  else return Usage("unknown workload");

  const int nproc = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  RunReport report;
  Tracer tracer(args.trace);
  {
    dbgc::ThreadPool pool(nproc);
    BenchContext ctx{args, nproc, &pool, &tracer, &report};
    workload(ctx);
  }
  report.E2e("peak_rss_mib", PeakRssMib(), "MiB");
  if (args.trace) report.Layer("trace.span_cost_us", SpanCostUs(), "us");

  // Every run reports exactly its metric set, with finite values.
  std::map<std::string, Metric> metrics;
  for (const char* name : kEndToEnd) {
    if (args.trace) break;
    auto it = report.end_to_end.find(name);
    if (it == report.end_to_end.end()) {
      report.Miss(std::string("end-to-end metric missing: ") + name);
    } else {
      metrics.insert(*it);
    }
  }
  for (const char* name : kPerLayer) {
    if (!args.trace) break;
    auto it = report.per_layer.find(name);
    if (it == report.per_layer.end()) {
      report.Miss(std::string("per-layer metric missing: ") + name);
    } else {
      metrics.insert(*it);
    }
  }
  for (auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      report.Miss("metric " + name + " is not finite");
      metric.value = 0.0;
    }
  }
  if (args.trace && !args.span_out.empty() &&
      !tracer.WriteJsonLines(args.span_out)) {
    std::fprintf(stderr, "warning: could not write spans to %s\n",
                 args.span_out.c_str());
  }

  std::string record = "{\"workload\": " + JsonString(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + JsonNumber(args.seconds) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"nproc\": " + std::to_string(nproc) +
                       ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                       ", \"git_revision\": " + JsonString(args.git_revision) +
                       ", \"spans\": " + std::to_string(tracer.size());
  for (const auto& [key, value] : report.record) {
    record += ", " + JsonString(key) + ": " + value;
  }
  std::printf("run record: %s}\n", record.c_str());
  for (const auto& [name, metric] :
       args.trace ? report.per_layer : report.end_to_end) {
    std::printf("  %-36s %14.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& miss : report.misses) {
    std::printf("correctness miss: %s\n", miss.c_str());
  }
  if (!report.invalid_reason.empty()) {
    std::printf("invalid run: %s\n", report.invalid_reason.c_str());
  }
  const bool correct = report.misses.empty() && report.failed == 0;
  PrintResult(report, correct, metrics);
  std::fflush(stdout);
  if (!correct) return 1;
  return report.invalid_reason.empty() ? 0 : 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
