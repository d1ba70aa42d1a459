// fleet_10hz: an open loop of paced 10 Hz sensors into one SessionManager.
// A fixed-rate phase with kFleetSensors staggered sensors gives the latency
// metrics; a capacity ladder then adds one sensor per fixed window until a
// window breaks the limit, which gives sustained sensors per core.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <thread>

#include "bench_common.h"
#include "core/dbgc_codec.h"
#include "core/error_metrics.h"
#include "layers.h"
#include "net/frame_protocol.h"
#include "net/session.h"

namespace perfbench {

namespace {

constexpr size_t kFleetSensors = 8;
// Each sensor cycles through kDrivesPerSensor short drives of its scene
// family, so the fixed phase averages over 16 independently generated
// worlds.
constexpr size_t kDrivesPerSensor = 2;
constexpr size_t kFramesPerDrive = 2;
constexpr size_t kFleetDrives = kFleetSensors * kDrivesPerSensor;
constexpr int kLevels = 3;  // DegradeLevel none, coarser_quant, cheap_codec.
// The capacity limit one ladder window must meet.
constexpr double kLimitP95Ms = 100.0;
constexpr double kLimitFailedFrac = 0.01;
constexpr double kLadderWindowS = 1.25;
constexpr size_t kMaxSensors = 64;

/// One drive frame pre-encoded at one degrade level, with the reference
/// decode every fleet decode of it must reproduce.
struct EncodedFrame {
  dbgc::ByteBuffer payload;
  uint64_t cloud_hash = 0;
  size_t num_points = 0;
};

struct FleetInputs {
  std::vector<Drive> drives;
  // [drive][frame][level]
  std::vector<std::vector<std::array<EncodedFrame, kLevels>>> encoded;
};

/// The encoder configuration a sensor switches to on each advised level,
/// as net/client.cc does: level 1 doubles q_xyz, level 2 also forces the
/// all-octree path.
dbgc::DbgcOptions LevelOptions(int level) {
  dbgc::DbgcOptions options;
  options.q_xyz = kQxyz * (level > 0 ? 2.0 : 1.0);
  if (level == 2) options.forced_dense_fraction = 1.0;
  return options;
}

/// The `r`-th drive (cyclically) of sensor `s`; sensors beyond
/// kFleetSensors reuse the drives of sensor s mod kFleetSensors.
size_t DriveOf(size_t s, size_t r) {
  return s % kFleetSensors + kFleetSensors * (r % kDrivesPerSensor);
}

uint64_t HashInputs(const FleetInputs& in) {
  uint64_t h = HashDrives(in.drives);
  for (const auto& drive : in.encoded) {
    for (const auto& frame : drive) {
      for (const EncodedFrame& e : frame) {
        h = Mix64(h ^ HashBytes(e.payload) ^ (e.cloud_hash * 31));
      }
    }
  }
  return h;
}

FleetInputs BuildInputs(BenchContext& ctx, std::vector<double>* generate_ms) {
  FleetInputs in;
  std::vector<DriveSpec> specs;
  const std::vector<dbgc::SceneType> families = dbgc::AllSceneTypes();
  for (size_t d = 0; d < kFleetDrives; ++d) {
    specs.push_back({families[(d % kFleetSensors) % families.size()],
                     DriveSeed(ctx.args.seed, d)});
  }
  in.drives = GenerateDrives(specs, kFramesPerDrive, ctx.pool, generate_ms);
  in.encoded.assign(
      kFleetDrives,
      std::vector<std::array<EncodedFrame, kLevels>>(kFramesPerDrive));
  const size_t jobs = kFleetDrives * kFramesPerDrive * kLevels;
  const dbgc::Status status =
      ctx.pool->ParallelFor(0, jobs, 1, [&](size_t lo, size_t hi) {
        for (size_t j = lo; j < hi; ++j) {
          const size_t d = j / (kFramesPerDrive * kLevels);
          const size_t f = (j / kLevels) % kFramesPerDrive;
          const int level = static_cast<int>(j % kLevels);
          const dbgc::DbgcCodec codec(LevelOptions(level));
          EncodedFrame& e = in.encoded[d][f][level];
          dbgc::Result<dbgc::ByteBuffer> bits = codec.Compress(
              in.drives[d].frames[f].cloud, codec.options().q_xyz);
          if (!bits.ok()) continue;  // Left empty: every decode misses.
          dbgc::Result<dbgc::PointCloud> ref = codec.Decompress(bits.value());
          if (!ref.ok()) continue;
          e.payload = std::move(bits).value();
          e.cloud_hash = HashCloud(ref.value());
          e.num_points = ref.value().size();
        }
      });
  if (!status.ok()) std::abort();
  return in;
}

/// One submitted frame. The generator writes the submit-side fields, the
/// completion callback the decode-side ones; the two sets never overlap.
struct FleetRec {
  size_t drive = 0;
  size_t frame = 0;
  int level = 0;
  double due = 0;
  double late_ms = 0;
  double serialize_us = 0;
  double submit_us = 0;
  double backlog = 0;  // Accepted - completed, just before this submit.
  dbgc::AdmitVerdict verdict = dbgc::AdmitVerdict::kAccepted;
  // Written by on_frame_done.
  double done = 0;
  bool ok = false;
  size_t num_points = 0;
  double e2e_ms = 0;
  double decode_ms = 0;
};

/// Outcome of one window (the fixed-rate phase or one ladder step).
struct WindowStats {
  size_t frames = 0;
  size_t failed = 0;  // Refused, decode errors, wrong point counts.
  double p95_ms = 0;  // Failed frames count as over any limit.
  double late_p95_ms = 0;
  bool backlog_growing = false;
  bool Meets() const {
    return p95_ms <= kLimitP95Ms &&
           static_cast<double>(failed) <=
               kLimitFailedFrac * static_cast<double>(frames) &&
           !backlog_growing && late_p95_ms <= kMaxLateMs;
  }
};

}  // namespace

void RunFleet10Hz(BenchContext& ctx) {
  RunReport& report = *ctx.report;
  Tracer& tracer = *ctx.tracer;
  std::vector<double> generate_ms;
  const FleetInputs inputs = RepeatedSetup<FleetInputs>(
      [&] { return BuildInputs(ctx, &generate_ms); }, HashInputs, &report);
  RecordCatalogue(inputs.drives, &report);
  Progress("setup done; fixed-rate phase");
  WarmUp(ctx, inputs.drives[0].frames[0].cloud);

  const double seconds = ctx.args.seconds;
  const double fixed_s = std::max(2.0, 0.5 * seconds);
  std::vector<FleetRec> recs(static_cast<size_t>(
      (seconds + 2 * kLadderWindowS) * kSensorHz * kMaxSensors));
  std::atomic<uint64_t> completed{0};

  dbgc::FleetConfig fleet;
  fleet.pool = ctx.pool;
  fleet.max_threads_per_frame = 1;
  fleet.on_frame_done = [&](const dbgc::FleetFrameReport& r) {
    FleetRec& rec = recs[r.frame_id >> 2];
    rec.done = Now();
    rec.ok = r.ok;
    rec.num_points = r.num_points;
    rec.e2e_ms = r.e2e_seconds * 1e3;
    rec.decode_ms = r.decode_seconds * 1e3;
    completed.fetch_add(1, std::memory_order_release);
  };
  dbgc::SessionManager manager(fleet);

  // Session ids, published to the consumer through `open_sessions`.
  std::vector<uint64_t> sessions(kMaxSensors, 0);
  std::atomic<size_t> open_sessions{0};
  auto open_up_to = [&](size_t n) {
    for (size_t s = open_sessions.load(); s < n; ++s) {
      if (sessions[s] == 0) {
        sessions[s] = manager.OpenSession("sensor" + std::to_string(s)).value();
      }
    }
    open_sessions.store(n, std::memory_order_release);
  };

  // Consumer: reads every open session's LatestCloud at 10 Hz, under the
  // same manager lock the decodes retire through. Every cloud it sees must
  // be a reference decode of that sensor's drive.
  std::atomic<bool> stop{false};
  std::vector<double> latest_us, inflight;
  uint64_t consumer_misses = 0;
  std::thread consumer([&] {
    const double start = Now();
    for (uint64_t tick = 1; !stop.load(); ++tick) {
      SleepUntil(start + static_cast<double>(tick) / kSensorHz);
      const size_t n = open_sessions.load(std::memory_order_acquire);
      for (size_t s = 0; s < n; ++s) {
        double ms = 0;
        dbgc::Result<dbgc::PointCloud> cloud = [&] {
          Span span(tracer, "session.latest_cloud", 0, &ms);
          return manager.LatestCloud(sessions[s]);
        }();
        latest_us.push_back(ms * 1e3);
        if (!cloud.ok()) continue;  // Nothing decoded yet.
        const uint64_t h = HashCloud(cloud.value());
        bool known = false;
        for (size_t r = 0; r < kDrivesPerSensor; ++r) {
          for (const auto& frame : inputs.encoded[DriveOf(s, r)]) {
            for (const EncodedFrame& e : frame) known |= e.cloud_hash == h;
          }
        }
        if (!known) ++consumer_misses;
      }
      inflight.push_back(static_cast<double>(manager.inflight()));
    }
  });

  // The generator (this thread): `n` sensors with staggered phases for
  // `duration` seconds. Each sensor sends the level its last ack advised.
  std::vector<int> advice(kMaxSensors, 0);
  std::vector<size_t> sent(kMaxSensors, 0);
  size_t next = 0;
  uint64_t accepted = 0;
  double generator_s = 0;
  auto run_window = [&](size_t n, double duration) {
    const size_t first = next;
    const double interval = 1.0 / kSensorHz;
    const double start = Now() + 0.01;
    const size_t rounds = static_cast<size_t>(std::llround(duration * kSensorHz));
    for (size_t r = 0; r < rounds && next < recs.size(); ++r) {
      for (size_t s = 0; s < n && next < recs.size(); ++s) {
        const size_t idx = next++;
        FleetRec& rec = recs[idx];
        rec.due = start + static_cast<double>(r) * interval +
                  static_cast<double>(s) * interval / static_cast<double>(n);
        SleepUntil(rec.due);
        rec.late_ms = (Now() - rec.due) * 1e3;
        rec.level = advice[s];
        const size_t count = sent[s]++;
        rec.drive = DriveOf(s, count / kFramesPerDrive);
        rec.frame = count % kFramesPerDrive;
        rec.backlog = static_cast<double>(accepted) -
                      static_cast<double>(completed.load(std::memory_order_acquire));
        const EncodedFrame& e = inputs.encoded[rec.drive][rec.frame][rec.level];
        dbgc::ByteBuffer wire;
        {
          Span span(tracer, "proto.serialize", idx, &rec.serialize_us);
          wire = dbgc::FrameProtocol::Serialize(
              {(static_cast<uint64_t>(idx) << 2) | static_cast<uint64_t>(rec.level),
               e.payload});
        }
        rec.serialize_us *= 1e3;
        dbgc::FrameAck ack;
        {
          Span span(tracer, "session.submit", idx, &rec.submit_us);
          ack = manager.SubmitFrame(sessions[s], wire);
        }
        rec.submit_us *= 1e3;
        rec.verdict = ack.verdict;
        if (ack.verdict == dbgc::AdmitVerdict::kAccepted) ++accepted;
        advice[s] = static_cast<int>(ack.degrade);
      }
    }
    (void)manager.Drain();
    generator_s += Now() - start;
    return std::make_pair(first, next);
  };

  auto evaluate = [&](std::pair<size_t, size_t> range, size_t n) {
    WindowStats w;
    std::vector<double> latency, late, backlog;
    for (size_t i = range.first; i < range.second; ++i) {
      const FleetRec& rec = recs[i];
      ++w.frames;
      late.push_back(rec.late_ms);
      backlog.push_back(rec.backlog);
      const EncodedFrame& e = inputs.encoded[rec.drive][rec.frame][rec.level];
      if (rec.verdict != dbgc::AdmitVerdict::kAccepted || rec.done == 0 ||
          !rec.ok || rec.num_points != e.num_points) {
        ++w.failed;
        latency.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      latency.push_back((rec.done - rec.due) * 1e3);
    }
    w.p95_ms = Quantile(latency, 0.95);
    w.late_p95_ms = Quantile(late, 0.95);
    // Growing backlog: the last third of the window holds more outstanding
    // decodes than the first third, by more than one frame per sensor.
    const size_t third = backlog.size() / 3;
    if (third > 0) {
      const std::vector<double> head(backlog.begin(), backlog.begin() + third);
      const std::vector<double> tail(backlog.end() - third, backlog.end());
      w.backlog_growing = Mean(tail) > Mean(head) + static_cast<double>(n);
    }
    return w;
  };

  // Fixed-rate phase.
  open_up_to(kFleetSensors);
  const double phase_start = Now();
  const auto fixed = run_window(kFleetSensors, fixed_s);
  const WindowStats fixed_stats = evaluate(fixed, kFleetSensors);

  // Capacity ladder. The fixed phase's decode utilisation predicts where
  // the pool saturates; the ladder starts there (or just below the fixed
  // phase, if that broke the limit) and moves one sensor per window, up
  // while windows meet the limit and down while they break it, and stops
  // at the first window whose verdict flips.
  double fixed_decode_s = 0;
  for (size_t i = fixed.first; i < fixed.second; ++i) {
    fixed_decode_s += recs[i].decode_ms / 1e3;
  }
  const double busy = fixed_decode_s / (ctx.nproc * fixed_s);
  size_t n = static_cast<size_t>(
      static_cast<double>(kFleetSensors) / std::max(busy, 1e-3));
  n = fixed_stats.Meets() ? std::clamp(n, kFleetSensors + 1, kMaxSensors - 1)
                          : kFleetSensors - 1;
  size_t sustained = fixed_stats.Meets() ? kFleetSensors : 0;
  std::string ladder = "[";
  const double ladder_end = phase_start + seconds;
  int direction = 0;  // +1 walking up, -1 walking down.
  bool flipped = false;
  while (n >= 1 && n < kMaxSensors &&
         Now() + kLadderWindowS <= ladder_end) {
    if (n > open_sessions.load()) {
      open_up_to(n);
    } else {
      for (size_t s = n; s < open_sessions.load(); ++s) {
        (void)manager.CloseSession(sessions[s]);
      }
      open_sessions.store(n, std::memory_order_release);
    }
    const WindowStats w = evaluate(run_window(n, kLadderWindowS), n);
    ladder += (ladder.size() > 1 ? ", " : "") +
              std::string("{\"sensors\": ") + std::to_string(n) +
              ", \"frames\": " + std::to_string(w.frames) +
              ", \"p95_ms\": " + JsonNumber(w.p95_ms) +
              ", \"failed\": " + std::to_string(w.failed) +
              ", \"backlog_growing\": " + (w.backlog_growing ? "true" : "false") +
              "}";
    if (w.Meets()) {
      sustained = std::max(sustained, n);
      flipped = direction < 0;
      if (flipped) break;
      direction = 1;
      ++n;
    } else {
      flipped = direction > 0;
      if (flipped) break;
      direction = -1;
      --n;
    }
  }
  stop.store(true);
  consumer.join();
  Progress("checking every decode");
  report.Record("ladder", ladder + "]");
  report.Record("ladder_start_busy_frac", JsonNumber(busy));
  // False when the run's time ran out before a window's verdict flipped:
  // sustained_sensors_per_core is then a lower bound.
  report.Record("ladder_found_limit", flipped ? "true" : "false");

  // Every decode (fixed phase and ladder) must match its reference; the
  // end-to-end metrics come from the fixed-rate phase. The D1 PSNR of each
  // (drive, frame, level) reference decode is weighted by how often the
  // fixed phase delivered it.
  std::map<size_t, uint64_t> psnr_uses;
  std::vector<double> frame_ms;
  double fixed_end = 0;
  uint64_t wire_bytes = 0, points = 0, degraded = 0, delivered = 0;
  for (size_t i = 0; i < next; ++i) {
    const FleetRec& rec = recs[i];
    const bool in_fixed = i < fixed.second;
    const size_t d = rec.drive;
    const EncodedFrame& e = inputs.encoded[d][rec.frame][rec.level];
    const bool accepted_ok = rec.verdict == dbgc::AdmitVerdict::kAccepted &&
                             rec.done != 0 && rec.ok;
    const bool wrong = accepted_ok && rec.num_points != e.num_points;
    if (wrong) {
      report.Miss("fleet frame " + std::to_string(i) +
                  " decoded to the wrong point count");
    }
    if (!in_fixed) {
      // Ladder refusals are the capacity measurement, not failures; a
      // wrong decode is.
      if (accepted_ok) ++report.attempted;
      if (wrong) ++report.failed;
      continue;
    }
    ++report.attempted;
    if (!accepted_ok || wrong) {
      ++report.failed;
      continue;
    }
    ++delivered;
    fixed_end = std::max(fixed_end, rec.done);
    frame_ms.push_back((rec.done - rec.due) * 1e3);
    wire_bytes += e.payload.size() + dbgc::FrameProtocol::kHeaderBytes;
    points += inputs.drives[d].frames[rec.frame].cloud.size();
    degraded += rec.level > 0 ? 1 : 0;
    ++psnr_uses[(d * kFramesPerDrive + rec.frame) * kLevels + rec.level];
  }
  std::vector<std::pair<size_t, uint64_t>> uses(psnr_uses.begin(),
                                                psnr_uses.end());
  std::vector<double> psnr(uses.size(), 0.0);
  ParallelEach(ctx, uses.size(), [&](size_t i) {
    const size_t key = uses[i].first;
    const size_t d = key / (kFramesPerDrive * kLevels);
    const size_t f = (key / kLevels) % kFramesPerDrive;
    const int level = static_cast<int>(key % kLevels);
    const dbgc::DbgcCodec codec(LevelOptions(level));
    dbgc::Result<dbgc::PointCloud> decoded =
        codec.Decompress(inputs.encoded[d][f][level].payload);
    if (decoded.ok()) {
      psnr[i] = dbgc::D1Psnr(inputs.drives[d].frames[f].cloud, decoded.value());
    }
  });
  double psnr_sum = 0;
  for (size_t i = 0; i < uses.size(); ++i) {
    psnr_sum += psnr[i] * static_cast<double>(uses[i].second);
  }
  if (consumer_misses > 0) {
    report.failed += consumer_misses;
    report.Miss(std::to_string(consumer_misses) +
                " LatestCloud reads matched no reference decode");
  }
  const double n_fixed = static_cast<double>(fixed.second - fixed.first);
  // Latency percentiles are medians over 1 s windows of the fixed phase
  // (each window holds every sensor's frames): a burst of host contention
  // that queues up a few seconds of frames moves the pooled p95 of an open
  // loop far more than it moves the typical window.
  std::vector<std::vector<double>> windows;
  for (size_t i = fixed.first; i < fixed.second; ++i) {
    const FleetRec& rec = recs[i];
    if (rec.done == 0) continue;
    const size_t w = static_cast<size_t>(rec.due - recs[fixed.first].due);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back((rec.done - rec.due) * 1e3);
  }
  std::vector<double> window_p50, window_p95;
  for (const std::vector<double>& w : windows) {
    window_p50.push_back(Quantile(w, 0.5));
    window_p95.push_back(Quantile(w, 0.95));
  }
  report.E2e("frame_ms_p50", Quantile(window_p50, 0.5), "ms");
  report.E2e("frame_ms_p95", Quantile(window_p95, 0.5), "ms");
  report.Samples("frame_ms", frame_ms.size());
  report.Samples("frame_ms_windows", windows.size());
  report.E2e("frames_per_s",
             static_cast<double>(delivered) / (fixed_end - recs[fixed.first].due),
             "frames/s");
  report.E2e("bpp", 8.0 * static_cast<double>(wire_bytes) /
                        static_cast<double>(points ? points : 1),
             "bits/point");
  report.E2e("d1_psnr_db",
             psnr_sum / static_cast<double>(delivered ? delivered : 1), "dB");
  report.E2e("delivered_frac", static_cast<double>(delivered) / n_fixed,
             "fraction");
  report.E2e("undegraded_frac",
             1.0 - static_cast<double>(degraded) /
                       static_cast<double>(delivered ? delivered : 1),
             "fraction");
  report.E2e("sustained_sensors_per_core",
             static_cast<double>(sustained) / ctx.nproc, "sensors/core");
  report.Record("threads", "{\"pool\": " + std::to_string(ctx.nproc) +
                               ", \"session_per_frame\": 1, \"generator\": 1, "
                               "\"consumer\": 1}");
  report.Record("fixed_phase", "{\"sensors\": " + std::to_string(kFleetSensors) +
                                   ", \"seconds\": " + std::to_string(fixed_s) +
                                   ", \"p95_ms_with_failures\": " +
                                   JsonNumber(fixed_stats.p95_ms) + "}");
  std::vector<double> fixed_late;
  for (size_t i = fixed.first; i < fixed.second; ++i) {
    fixed_late.push_back(recs[i].late_ms);
  }
  CheckGeneratorLate(fixed_late, &report);

  if (!ctx.args.trace) return;
  NetSamples net;
  for (size_t i = 0; i < next; ++i) {
    const FleetRec& rec = recs[i];
    net.serialize_us.push_back(rec.serialize_us);
    net.submit_us.push_back(rec.submit_us);
    net.late_ms.push_back(rec.late_ms);
    ++net.submitted;
    if (rec.verdict == dbgc::AdmitVerdict::kRejectedGlobalBudget) {
      ++net.rejected_global;
    } else if (rec.verdict == dbgc::AdmitVerdict::kRejectedSessionShare) {
      ++net.rejected_share;
    }
    if (rec.verdict != dbgc::AdmitVerdict::kAccepted) continue;
    ++net.accepted;
    if (rec.done == 0) continue;
    net.queue_wait_ms.push_back(rec.e2e_ms - rec.decode_ms);
    net.decode_ms.push_back(rec.decode_ms);
    net.decode_busy_s += rec.decode_ms / 1e3;
  }
  net.latest_cloud_us = latest_us;
  net.inflight = inflight;
  for (size_t s = 0; s < kMaxSensors; ++s) {
    if (sessions[s] != 0) net.evicted += manager.store(sessions[s])->evicted();
  }
  net.wall_s = generator_s;
  report.Layer("trace.frame_ms_p50", Quantile(frame_ms, 0.5), "ms");
  report.Layer("lidar.generate_ms", Quantile(generate_ms, 0.5), "ms");
  ReportNetLayers(net, ctx.nproc, &report);
  ReplayLayers(ctx, inputs.drives, kReplayFrames);
  Progress("net probe");
  ProbeNetLayers(ctx, LapOf(inputs.drives));
}

}  // namespace perfbench
