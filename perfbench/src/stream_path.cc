// The stream path (CompressionPipeline -> FrameProtocol -> SessionManager)
// and the temporal_drive workload that runs it in temporal I/P mode.

#include <cmath>
#include <memory>
#include <semaphore>
#include <thread>

#include "bench_common.h"
#include "core/dbgc_codec.h"
#include "core/error_metrics.h"
#include "core/temporal_codec.h"
#include "layers.h"
#include "net/frame_protocol.h"
#include "net/pipeline.h"
#include "net/session.h"

namespace perfbench {

namespace {

/// Independently generated drives per scene family in temporal_drive's lap.
constexpr size_t kTemporalDrivesPerFamily = 2;

}  // namespace

void ReportNetLayers(const NetSamples& net, int nproc, RunReport* report) {
  const double submitted =
      static_cast<double>(net.submitted > 0 ? net.submitted : 1);
  report->Layer("proto.serialize_us", Quantile(net.serialize_us, 0.5), "us");
  report->Layer("session.submit_us_p95", Quantile(net.submit_us, 0.95), "us");
  report->Layer("session.queue_wait_ms_p50", Quantile(net.queue_wait_ms, 0.5),
                "ms");
  report->Layer("session.queue_wait_ms_p95",
                Quantile(net.queue_wait_ms, 0.95), "ms");
  report->Layer("session.decode_ms_p95", Quantile(net.decode_ms, 0.95), "ms");
  report->Layer("session.reject_frac.global_budget",
                static_cast<double>(net.rejected_global) / submitted,
                "fraction");
  report->Layer("session.reject_frac.session_share",
                static_cast<double>(net.rejected_share) / submitted,
                "fraction");
  report->Layer("session.inflight_mean", Mean(net.inflight), "frames");
  report->Layer("session.latest_cloud_us_p95",
                Quantile(net.latest_cloud_us, 0.95), "us");
  report->Layer("store.evicted_frac",
                static_cast<double>(net.evicted) /
                    static_cast<double>(net.accepted > 0 ? net.accepted : 1),
                "fraction");
  report->Layer("gen.late_ms_p95", Quantile(net.late_ms, 0.95), "ms");
  report->Layer("pool.busy_frac",
                net.decode_busy_s / (nproc * (net.wall_s > 0 ? net.wall_s : 1)),
                "fraction");
  report->Samples("session.queue_wait_ms", net.queue_wait_ms.size());
  report->Samples("session.submit_us", net.submit_us.size());
  report->Samples("session.latest_cloud_us", net.latest_cloud_us.size());
}

StreamPathResult RunStreamPath(BenchContext& ctx, const Lap& lap,
                               bool temporal, size_t num_frames) {
  Tracer& tracer = *ctx.tracer;
  StreamPathResult run;
  run.frames.resize(num_frames);
  std::vector<StreamFrameRec>& recs = run.frames;

  dbgc::FleetConfig fleet;
  fleet.pool = ctx.pool;
  fleet.max_threads_per_frame = 1;
  std::unique_ptr<dbgc::SessionManager> manager;
  uint64_t session = 0;
  // Runs on a pool thread after each decode, outside the manager lock.
  // Reads and writes only fields of the frame's own record that the
  // generator and forwarder threads never touch.
  fleet.on_frame_done = [&](const dbgc::FleetFrameReport& r) {
    StreamFrameRec& rec = recs[r.frame_id];
    rec.done = Now();
    rec.decode_ok = r.ok;
    rec.num_points = r.num_points;
    rec.e2e_ms = r.e2e_seconds * 1e3;
    rec.decode_ms = r.decode_seconds * 1e3;
    dbgc::Result<dbgc::PointCloud> latest = [&] {
      Span span(tracer, "session.latest_cloud", r.frame_id, &rec.latest_us);
      return manager->LatestCloud(r.session_id);
    }();
    rec.latest_us *= 1e3;
    if (latest.ok()) rec.cloud_hash = HashCloud(latest.value());
  };
  manager = std::make_unique<dbgc::SessionManager>(fleet);
  session = manager->OpenSession("stream").value();

  dbgc::CompressionPipeline::Config config;
  config.pool = ctx.pool;
  config.max_threads_per_frame = 1;
  if (temporal) {
    dbgc::TemporalConfig tc;
    tc.keyframe_interval = kKeyframeInterval;
    tc.intra_options.q_xyz = kQxyz;
    config.temporal = tc;
  }
  dbgc::DbgcOptions options;
  options.q_xyz = kQxyz;
  dbgc::CompressionPipeline pipeline(options, config);

  // NextResult refuses to wait for a frame not yet submitted, so the
  // forwarder takes one permit per submitted frame first.
  std::counting_semaphore<> submitted(0);
  std::thread forwarder([&] {
    for (size_t k = 0; k < num_frames; ++k) {
      StreamFrameRec& rec = recs[k];
      submitted.acquire();
      dbgc::Result<dbgc::ByteBuffer> out = [&] {
        Span span(tracer, "pipeline.next_result", k);
        return pipeline.NextResult();
      }();
      rec.encoded = Now();
      rec.encode_ok = out.ok();
      if (!out.ok()) continue;
      rec.payload_hash = HashBytes(out.value());
      dbgc::ByteBuffer wire;
      {
        Span span(tracer, "proto.serialize", k, &rec.serialize_us);
        wire = dbgc::FrameProtocol::Serialize({k, std::move(out).value()});
      }
      rec.serialize_us *= 1e3;
      rec.wire_bytes = wire.size();
      dbgc::FrameAck ack;
      {
        Span span(tracer, "session.submit", k, &rec.submit_us);
        ack = manager->SubmitFrame(session, wire);
      }
      rec.submit_us *= 1e3;
      rec.accepted = ack.verdict == dbgc::AdmitVerdict::kAccepted;
      rec.degraded = ack.degrade != dbgc::DegradeLevel::kNone;
    }
  });

  const double interval = 1.0 / kSensorHz;
  run.start = Now() + 0.05;
  for (size_t k = 0; k < num_frames; ++k) {
    StreamFrameRec& rec = recs[k];
    rec.pos = k % lap.size();
    rec.due = run.start + static_cast<double>(k) * interval;
    SleepUntil(rec.due);
    rec.late_ms = (Now() - rec.due) * 1e3;
    rec.inflight = static_cast<double>(manager->inflight());
    const dbgc::StreamFrame& frame = *lap[rec.pos];
    {
      Span span(tracer, "pipeline.submit", k, &rec.submit_block_ms);
      pipeline.Submit(frame.cloud, frame.pose);
    }
    rec.submit_end = Now();
    submitted.release();
  }
  forwarder.join();
  (void)manager->Drain();
  for (const StreamFrameRec& rec : recs) run.end = std::max(run.end, rec.done);
  run.evicted = manager->store(session)->evicted();
  return run;
}

void ReportStreamLayers(const StreamPathResult& run, int nproc,
                        RunReport* report) {
  NetSamples net;
  std::vector<double> submit_block_ms, result_wait_ms;
  for (const StreamFrameRec& rec : run.frames) {
    submit_block_ms.push_back(rec.submit_block_ms);
    net.late_ms.push_back(rec.late_ms);
    net.inflight.push_back(rec.inflight);
    if (!rec.encode_ok) continue;
    result_wait_ms.push_back((rec.encoded - rec.submit_end) * 1e3);
    net.serialize_us.push_back(rec.serialize_us);
    net.submit_us.push_back(rec.submit_us);
    ++net.submitted;
    if (!rec.accepted) continue;
    ++net.accepted;
    if (rec.done == 0) continue;
    net.queue_wait_ms.push_back(rec.e2e_ms - rec.decode_ms);
    net.decode_ms.push_back(rec.decode_ms);
    net.latest_cloud_us.push_back(rec.latest_us);
    net.decode_busy_s += rec.decode_ms / 1e3;
  }
  net.evicted = run.evicted;
  net.wall_s = run.end - run.start;
  report->Layer("pipeline.submit_block_ms", Mean(submit_block_ms), "ms");
  report->Layer("pipeline.result_wait_ms", Quantile(result_wait_ms, 0.5),
                "ms");
  report->Samples("pipeline.result_wait_ms", result_wait_ms.size());
  ReportNetLayers(net, nproc, report);
}

void ProbeNetLayers(BenchContext& ctx, const Lap& lap) {
  const StreamPathResult run = RunStreamPath(ctx, lap, /*temporal=*/false, 16);
  for (const StreamFrameRec& rec : run.frames) {
    if (rec.done == 0 || !rec.decode_ok ||
        rec.num_points != lap[rec.pos]->cloud.size()) {
      ctx.report->Miss("net probe: frame of lap position " +
                       std::to_string(rec.pos) +
                       " was not delivered with its point count");
    }
  }
  ReportStreamLayers(run, ctx.nproc, ctx.report);
}

void RunTemporalDrive(BenchContext& ctx) {
  RunReport& report = *ctx.report;
  std::vector<double> generate_ms;
  const std::vector<Drive> drives = RepeatedSetup<std::vector<Drive>>(
      [&] {
        std::vector<DriveSpec> specs;
        // One keyframe interval from each of kTemporalDrivesPerFamily
        // drives of every scene family, back to back: each segment, and so
        // each lap, starts on an I-frame, and every lap emits the same
        // bytes as the first.
        for (size_t rep = 0; rep < kTemporalDrivesPerFamily; ++rep) {
          for (dbgc::SceneType family : dbgc::AllSceneTypes()) {
            specs.push_back({family, DriveSeed(ctx.args.seed, specs.size())});
          }
        }
        return GenerateDrives(specs, kKeyframeInterval, ctx.pool, &generate_ms);
      },
      HashDrives, &report);
  RecordCatalogue(drives, &report);
  Progress("setup done; timed stream");
  const Lap lap = LapOf(drives);
  WarmUp(ctx, lap[0]->cloud);

  const size_t num_frames = static_cast<size_t>(
      std::llround(ctx.args.seconds * kSensorHz));
  const StreamPathResult run =
      RunStreamPath(ctx, lap, /*temporal=*/true, num_frames);

  Progress("checking every lap position");
  // References per lap position, outside the timed run: I-frames are DBGC
  // bitstreams and keep the point-wise bound; P-frames reconstruct exactly
  // as TemporalGridReconstruction.
  const dbgc::SensorMetadata sensor = dbgc::SensorMetadata::VelodyneHdl64e();
  std::vector<IntraReference> refs(lap.size());
  ParallelEach(ctx, lap.size(), [&](size_t pos) {
    const dbgc::PointCloud& original = lap[pos]->cloud;
    if (pos % kKeyframeInterval == 0) {
      refs[pos] = CheckIntra(original);
      return;
    }
    dbgc::Result<dbgc::PointCloud> grid =
        dbgc::TemporalGridReconstruction(original, kQxyz, sensor);
    if (!grid.ok()) return;
    refs[pos].ok = true;
    refs[pos].cloud_hash = HashCloud(grid.value());
    refs[pos].psnr_db = dbgc::D1Psnr(original, grid.value());
  });
  for (size_t pos = 0; pos < lap.size(); ++pos) {
    if (!refs[pos].ok) {
      report.Miss("temporal lap position " + std::to_string(pos) +
                  (pos % kKeyframeInterval == 0
                       ? ": I-frame breaks the point-wise contract"
                       : ": TemporalGridReconstruction failed"));
    }
  }

  std::vector<uint64_t> lap_payload(lap.size(), 0);
  std::vector<double> frame_ms;
  double psnr_sum = 0.0;
  uint64_t wire_bytes = 0, points = 0, delivered = 0, degraded = 0;
  for (const StreamFrameRec& rec : run.frames) {
    ++report.attempted;
    const bool same_lap_bytes =
        lap_payload[rec.pos] == 0 || lap_payload[rec.pos] == rec.payload_hash;
    if (lap_payload[rec.pos] == 0) lap_payload[rec.pos] = rec.payload_hash;
    if (rec.done == 0 || !rec.decode_ok) {
      ++report.failed;
      report.Miss("temporal frame " + std::to_string(rec.due - run.start) +
                  "s was refused or failed to decode");
      continue;
    }
    if (rec.cloud_hash != refs[rec.pos].cloud_hash || !same_lap_bytes) {
      ++report.failed;
      report.Miss("temporal frame at lap position " + std::to_string(rec.pos) +
                  (same_lap_bytes ? " decoded to the wrong cloud"
                                  : " changed bytes between laps"));
      continue;
    }
    ++delivered;
    degraded += rec.degraded ? 1 : 0;
    frame_ms.push_back((rec.done - rec.due) * 1e3);
    wire_bytes += rec.wire_bytes;
    points += lap[rec.pos]->cloud.size();
    psnr_sum += refs[rec.pos].psnr_db;
  }
  ReportLatency(frame_ms, &report);
  report.E2e("frames_per_s",
             static_cast<double>(delivered) / (run.end - run.start),
             "frames/s");
  report.E2e("bpp", 8.0 * static_cast<double>(wire_bytes) /
                        static_cast<double>(points ? points : 1),
             "bits/point");
  report.E2e("d1_psnr_db",
             psnr_sum / static_cast<double>(delivered ? delivered : 1), "dB");
  report.E2e("delivered_frac",
             static_cast<double>(delivered) /
                 static_cast<double>(report.attempted),
             "fraction");
  report.E2e("undegraded_frac",
             1.0 - static_cast<double>(degraded) /
                       static_cast<double>(delivered ? delivered : 1),
             "fraction");
  // Sustained streams per core at the measured service time: the median
  // over laps of the lap's mean frame latency (each lap has the same I/P
  // mix), so a few seconds of a slower machine move it less.
  std::vector<double> lap_ms;
  for (size_t first = 0; first + lap.size() <= frame_ms.size();
       first += lap.size()) {
    lap_ms.push_back(Mean(std::vector<double>(
        frame_ms.begin() + first, frame_ms.begin() + first + lap.size())));
  }
  if (lap_ms.empty()) lap_ms.push_back(Mean(frame_ms));
  report.E2e("sustained_sensors_per_core",
             1e3 / (kSensorHz * Quantile(lap_ms, 0.5) * ctx.nproc),
             "sensors/core");
  report.Samples("sustained_sensors_per_core", lap_ms.size());
  std::vector<double> late_ms;
  for (const StreamFrameRec& rec : run.frames) late_ms.push_back(rec.late_ms);
  CheckGeneratorLate(late_ms, &report);
  report.Record("threads", "{\"pool\": " + std::to_string(ctx.nproc) +
                               ", \"pipeline_per_frame\": 1, "
                               "\"session_per_frame\": 1, \"generator\": 1, "
                               "\"forwarder\": 1}");

  if (!ctx.args.trace) return;
  report.Layer("trace.frame_ms_p50", Quantile(frame_ms, 0.5), "ms");
  report.Layer("lidar.generate_ms", Quantile(generate_ms, 0.5), "ms");
  ReportStreamLayers(run, ctx.nproc, &report);
  ReplayLayers(ctx, drives, kReplayFrames);
}

}  // namespace perfbench
