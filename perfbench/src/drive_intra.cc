// drive_intra: one sensor in a closed loop. Each frame is compressed on
// the nproc-thread pool, framed and parsed by FrameProtocol, and
// decompressed on the same pool; frames cycle through short drives of
// every scene family.

#include "bench_common.h"
#include "core/dbgc_codec.h"
#include "layers.h"
#include "net/frame_protocol.h"

namespace perfbench {

namespace {

// Drives per scene family and frames per drive: 36 distinct frames, so a
// run's figures average over many independently generated worlds.
constexpr size_t kDrivesPerFamily = 3;
constexpr size_t kFramesPerDrive = 2;

/// What the timed loop saw for one distinct frame: the first bitstream and
/// decoded cloud fingerprints (later laps must repeat them).
struct Observed {
  bool seen = false;
  uint64_t bits_hash = 0;
  uint64_t cloud_hash = 0;
};

}  // namespace

void RunDriveIntra(BenchContext& ctx) {
  RunReport& report = *ctx.report;
  Tracer& tracer = *ctx.tracer;
  std::vector<double> generate_ms;
  const std::vector<Drive> drives = RepeatedSetup<std::vector<Drive>>(
      [&] {
        std::vector<DriveSpec> specs;
        for (size_t rep = 0; rep < kDrivesPerFamily; ++rep) {
          for (dbgc::SceneType family : dbgc::AllSceneTypes()) {
            specs.push_back({family, DriveSeed(ctx.args.seed, specs.size())});
          }
        }
        return GenerateDrives(specs, kFramesPerDrive, ctx.pool, &generate_ms);
      },
      HashDrives, &report);
  RecordCatalogue(drives, &report);
  Progress("setup done; timed closed loop");
  std::vector<const dbgc::PointCloud*> frames;
  for (const Drive& d : drives) {
    for (const dbgc::StreamFrame& f : d.frames) frames.push_back(&f.cloud);
  }
  WarmUp(ctx, *frames[0]);

  const dbgc::DbgcCodec codec;
  dbgc::CompressParams cparams;
  cparams.q_xyz = kQxyz;
  cparams.pool = ctx.pool;
  cparams.max_threads = 0;
  dbgc::DecompressParams dparams;
  dparams.pool = ctx.pool;
  dparams.max_threads = 0;

  std::vector<Observed> observed(frames.size());
  std::vector<size_t> delivered_index;  // Distinct-frame index per frame.
  std::vector<double> frame_ms, decode_ms, serialize_us, parse_us;
  uint64_t wire_bytes = 0, points = 0;
  const double t_end = Now() + ctx.args.seconds;
  for (uint64_t k = 0; Now() < t_end; ++k) {
    const size_t idx = k % frames.size();
    const dbgc::PointCloud& pc = *frames[idx];
    ++report.attempted;
    double total_ms = 0, dec_ms = 0, ser_ms = 0, par_ms = 0;
    dbgc::Result<dbgc::PointCloud> decoded = dbgc::Status::Internal("not run");
    size_t wire_size = 0;
    uint64_t bits_hash = 0;
    {
      Span frame_span(tracer, "frame", k, &total_ms);
      dbgc::Result<dbgc::ByteBuffer> bits = [&] {
        Span span(tracer, "dbgc.compress", k);
        return codec.Compress(pc, cparams);
      }();
      if (bits.ok()) {
        bits_hash = HashBytes(bits.value());
        dbgc::ByteBuffer wire;
        {
          Span span(tracer, "proto.serialize", k, &ser_ms);
          wire = dbgc::FrameProtocol::Serialize({k, std::move(bits).value()});
        }
        wire_size = wire.size();
        dbgc::Result<dbgc::Frame> parsed = [&] {
          Span span(tracer, "proto.parse", k, &par_ms);
          return dbgc::FrameProtocol::Parse(wire);
        }();
        if (parsed.ok()) {
          Span span(tracer, "dbgc.decompress", k, &dec_ms);
          decoded = codec.Decompress(parsed.value().payload, dparams);
        } else {
          decoded = parsed.status();
        }
      } else {
        decoded = bits.status();
      }
    }
    // Outside the timed region: the frame must decode to the same cloud
    // (and encode to the same bytes) on every lap.
    if (!decoded.ok() || decoded.value().size() != pc.size()) {
      ++report.failed;
      report.Miss("drive_intra frame " + std::to_string(idx) +
                  " failed or changed its point count");
      continue;
    }
    const uint64_t cloud_hash = HashCloud(decoded.value());
    Observed& seen = observed[idx];
    if (!seen.seen) {
      seen = {true, bits_hash, cloud_hash};
    } else if (seen.bits_hash != bits_hash || seen.cloud_hash != cloud_hash) {
      ++report.failed;
      report.Miss("drive_intra frame " + std::to_string(idx) +
                  " changed between laps");
      continue;
    }
    delivered_index.push_back(idx);
    frame_ms.push_back(total_ms);
    decode_ms.push_back(dec_ms);
    serialize_us.push_back(ser_ms * 1e3);
    parse_us.push_back(par_ms * 1e3);
    wire_bytes += wire_size;
    points += pc.size();
  }

  Progress("checking every distinct frame");
  // Per-distinct-frame checks, outside the timed loop: a serial encode
  // with the point mapping must keep the point-wise contract, give the
  // same bytes and decode to the cloud the loop saw.
  std::vector<IntraReference> refs(frames.size());
  ParallelEach(ctx, frames.size(),
               [&](size_t i) { refs[i] = CheckIntra(*frames[i]); });
  std::vector<bool> bad(frames.size(), false);
  for (size_t idx = 0; idx < frames.size(); ++idx) {
    const Observed& seen = observed[idx];
    const IntraReference& ref = refs[idx];
    if (!ref.ok || (seen.seen && (seen.bits_hash != ref.bits_hash ||
                                  seen.cloud_hash != ref.cloud_hash))) {
      report.Miss("drive_intra frame " + std::to_string(idx) +
                  " fails the point-wise contract or differs from the "
                  "serial reference");
      bad[idx] = true;
    }
  }

  double psnr_sum = 0.0;
  uint64_t delivered = 0;
  for (size_t idx : delivered_index) {
    psnr_sum += refs[idx].psnr_db;
    if (bad[idx]) ++report.failed;
    else ++delivered;
  }
  const double n = static_cast<double>(frame_ms.size() ? frame_ms.size() : 1);
  // Latency percentiles are medians over laps, each lap covering every
  // distinct frame once: a few seconds of host contention move the pooled
  // tail far more than they move the typical lap.
  std::vector<double> lap_p50, lap_p95;
  for (size_t first = 0; first + frames.size() <= frame_ms.size();
       first += frames.size()) {
    const std::vector<double> lap(frame_ms.begin() + first,
                                  frame_ms.begin() + first + frames.size());
    lap_p50.push_back(Quantile(lap, 0.5));
    lap_p95.push_back(Quantile(lap, 0.95));
  }
  report.E2e("frame_ms_p50", Quantile(lap_p50, 0.5), "ms");
  report.E2e("frame_ms_p95", Quantile(lap_p95, 0.5), "ms");
  report.Samples("frame_ms", frame_ms.size());
  report.Samples("frame_ms_laps", lap_p50.size());
  // Throughput is the median over 2 s windows of busy time, so a few
  // seconds of a slower machine move it less than a mean would.
  std::vector<double> window_fps;
  double window_ms = 0, window_frames = 0;
  for (double ms : frame_ms) {
    window_ms += ms;
    window_frames += 1;
    if (window_ms >= 2000.0) {
      window_fps.push_back(window_frames * 1e3 / window_ms);
      window_ms = window_frames = 0;
    }
  }
  const double fps = Quantile(window_fps, 0.5);
  report.E2e("frames_per_s", fps, "frames/s");
  report.Samples("frames_per_s", window_fps.size());
  report.E2e("bpp", 8.0 * static_cast<double>(wire_bytes) /
                        static_cast<double>(points ? points : 1),
             "bits/point");
  report.E2e("d1_psnr_db", psnr_sum / n, "dB");
  report.E2e("delivered_frac",
             static_cast<double>(delivered) /
                 static_cast<double>(report.attempted),
             "fraction");
  report.E2e("undegraded_frac", 1.0, "fraction");
  report.E2e("sustained_sensors_per_core", fps / (kSensorHz * ctx.nproc),
             "sensors/core");
  report.Record("threads", "{\"pool\": " + std::to_string(ctx.nproc) +
                               ", \"compress_max_threads\": 0, "
                               "\"decompress_max_threads\": 0}");

  if (!ctx.args.trace) return;
  report.Layer("trace.frame_ms_p50", Quantile(frame_ms, 0.5), "ms");
  report.Layer("lidar.generate_ms", Quantile(generate_ms, 0.5), "ms");
  report.Layer("proto.serialize_us", Quantile(serialize_us, 0.5), "us");
  report.Layer("proto.parse_us", Quantile(parse_us, 0.5), "us");
  report.Layer("pool.busy_frac",
               Sum(decode_ms) / (ctx.nproc * Sum(frame_ms)), "fraction");
  ReplayLayers(ctx, drives, kReplayFrames);
  Progress("net probe");
  ProbeNetLayers(ctx, LapOf(drives));
}

}  // namespace perfbench
