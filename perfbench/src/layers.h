// The net-layer samples every paced workload collects, the stream path
// (CompressionPipeline -> FrameProtocol -> SessionManager) shared by
// temporal_drive and the traced net probe, and the traced run's codec
// layer replay.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench_common.h"

namespace perfbench {

/// Samples of the net/session, net/frame_store, net/frame_protocol and
/// load-generator layers, as the benchmark observes them from outside.
struct NetSamples {
  std::vector<double> serialize_us;     // FrameProtocol::Serialize calls.
  std::vector<double> submit_us;        // SessionManager::SubmitFrame calls.
  std::vector<double> queue_wait_ms;    // Report e2e_seconds - decode_seconds.
  std::vector<double> decode_ms;        // Report decode_seconds.
  std::vector<double> latest_cloud_us;  // SessionManager::LatestCloud calls.
  std::vector<double> inflight;         // SessionManager::inflight() samples.
  std::vector<double> late_ms;          // Generator lateness per due frame.
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected_global = 0;
  uint64_t rejected_share = 0;
  uint64_t evicted = 0;      // MemoryFrameStore::evicted() summed.
  double decode_busy_s = 0;  // Sum of decode_seconds.
  double wall_s = 0;         // Span of the paced run.
};

/// Folds net samples into the per-layer metrics (session.*, store.*,
/// proto.serialize_us, gen.late_ms_p95, pool.busy_frac).
void ReportNetLayers(const NetSamples& net, int nproc, RunReport* report);

/// One frame of a stream-path run.
struct StreamFrameRec {
  size_t pos = 0;       // Index into the lap.
  double due = 0;       // Scheduled capture time.
  double done = 0;      // on_frame_done time (0 = never delivered).
  double submit_end = 0;
  double encoded = 0;   // NextResult returned.
  bool encode_ok = false;
  bool accepted = false;
  bool decode_ok = false;
  bool degraded = false;  // The ack advised a DegradeLevel above none.
  size_t num_points = 0;
  size_t wire_bytes = 0;
  uint64_t payload_hash = 0;
  uint64_t cloud_hash = 0;  // LatestCloud right after this frame retired.
  double submit_block_ms = 0;
  double serialize_us = 0;
  double submit_us = 0;
  double e2e_ms = 0;
  double decode_ms = 0;
  double latest_us = 0;
  double late_ms = 0;
  double inflight = 0;
};

struct StreamPathResult {
  std::vector<StreamFrameRec> frames;
  double start = 0;  // Due time of the first frame.
  double end = 0;    // Last on_frame_done.
  uint64_t evicted = 0;
};

/// Streams `num_frames` frames of `lap` (replayed in laps) at 10 Hz from
/// one paced sensor: Submit to a CompressionPipeline (temporal I/P mode
/// when `temporal`, else DBGC intra), FrameProtocol::Serialize, then
/// SessionManager::SubmitFrame, all on the context's shared pool. The
/// calling thread is the generator and one forwarder thread moves results
/// from the pipeline to the session.
StreamPathResult RunStreamPath(BenchContext& ctx, const Lap& lap,
                               bool temporal, size_t num_frames);

/// Per-layer metrics of a stream-path run: pipeline.* plus the net layers.
void ReportStreamLayers(const StreamPathResult& run, int nproc,
                        RunReport* report);

/// Traced-run probe for workloads whose live path has no pipeline: 16
/// frames of `lap` through RunStreamPath in DBGC mode. Every delivered
/// frame must keep its point count.
void ProbeNetLayers(BenchContext& ctx, const Lap& lap);

/// Frames the traced run replays layer by layer (the first of the
/// workload's catalogue, drive by drive).
inline constexpr size_t kReplayFrames = 24;

/// Traced-run replay on up to `max_frames` frames of `drives`: the DBGC
/// stage functions in dbgc_codec.cc order (den/oct/cor/org/spa/out), the
/// real Compress/Decompress at 1 and nproc threads (dbgc.*, pool.*),
/// FrameProtocol round trips (proto.*) and the temporal codec against
/// RangeImageCodec intra (temporal.*). A replayed section that differs
/// from the real bitstream, or a replayed decode that differs from the
/// real one, is a correctness miss.
void ReplayLayers(BenchContext& ctx, const std::vector<Drive>& drives,
                  size_t max_frames);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
