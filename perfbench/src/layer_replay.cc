// The traced run's codec-layer replay: the DBGC stage functions called in
// the order dbgc_codec.cc calls them, cross-checked section by section
// against the real bitstream; the real codec at 1 and nproc threads; the
// frame protocol; and the temporal codec against intra RangeImage.

#include <cstring>

#include "bench_common.h"
#include "bitio/varint.h"
#include "codec/octree_codec.h"
#include "codec/range_image_codec.h"
#include "core/coordinate_converter.h"
#include "core/dbgc_codec.h"
#include "core/density_partitioner.h"
#include "core/outlier_codec.h"
#include "core/point_grouper.h"
#include "core/polyline_organizer.h"
#include "core/sparse_codec.h"
#include "core/temporal_codec.h"
#include "layers.h"
#include "net/frame_protocol.h"
#include "spatial/octree.h"

namespace perfbench {

namespace {

/// The sections of one framed DBGC bitstream (entropy version byte, then
/// the Figure 8 layout written by DbgcCodec::CompressImpl).
struct DbgcSections {
  dbgc::EntropyBackend backend = dbgc::kDefaultEntropyBackend;
  bool spherical = true;
  dbgc::OutlierMode outlier_mode = dbgc::OutlierMode::kQuadtree;
  dbgc::ByteBuffer dense;
  std::vector<dbgc::SparseGroupParams> group_params;
  std::vector<dbgc::ByteBuffer> groups;
  dbgc::ByteBuffer outlier;
};

dbgc::Status ParseSections(const dbgc::ByteBuffer& framed, DbgcSections* out) {
  if (framed.empty() ||
      !dbgc::EntropyBackendFromVersionByte(framed[0], &out->backend)) {
    return dbgc::Status::Corruption("replay: bad entropy version byte");
  }
  dbgc::ByteReader reader(framed.data() + 1, framed.size() - 1);
  uint8_t magic[4];
  DBGC_RETURN_NOT_OK(reader.Read(magic, 4));
  if (std::memcmp(magic, "DBGC", 4) != 0) {
    return dbgc::Status::Corruption("replay: bad magic");
  }
  uint8_t version = 0, flags = 0;
  double q = 0;
  DBGC_RETURN_NOT_OK(reader.ReadByte(&version));
  DBGC_RETURN_NOT_OK(reader.ReadByte(&flags));
  DBGC_RETURN_NOT_OK(reader.ReadDouble(&q));
  out->spherical = (flags & 1) != 0;
  out->outlier_mode = static_cast<dbgc::OutlierMode>((flags >> 2) & 3);
  DBGC_RETURN_NOT_OK(reader.ReadLengthPrefixed(&out->dense));
  uint64_t num_groups = 0;
  DBGC_RETURN_NOT_OK(dbgc::GetVarint64(&reader, &num_groups));
  if (num_groups > 64) return dbgc::Status::Corruption("replay: group count");
  for (uint64_t g = 0; g < num_groups; ++g) {
    dbgc::SparseGroupParams p;
    DBGC_RETURN_NOT_OK(reader.ReadDouble(&p.step_theta));
    DBGC_RETURN_NOT_OK(reader.ReadDouble(&p.step_phi));
    DBGC_RETURN_NOT_OK(reader.ReadDouble(&p.step_r));
    DBGC_RETURN_NOT_OK(dbgc::GetSignedVarint64(&reader, &p.th_r));
    DBGC_RETURN_NOT_OK(dbgc::GetSignedVarint64(&reader, &p.th_phi));
    p.radial_optimized = (flags & 2) != 0;
    out->group_params.push_back(p);
    out->groups.emplace_back();
    DBGC_RETURN_NOT_OK(reader.ReadLengthPrefixed(&out->groups.back()));
  }
  DBGC_RETURN_NOT_OK(reader.ReadLengthPrefixed(&out->outlier));
  return dbgc::Status::OK();
}

bool SameBytes(const dbgc::ByteBuffer& a, const dbgc::ByteBuffer& b) {
  return a.bytes() == b.bytes();
}

/// Stage times (ms) of one replayed encode or decode.
struct StageMs {
  double den = 0, oct = 0, cor = 0, org = 0, spa = 0, out = 0;
  double Total() const { return den + oct + cor + org + spa + out; }
};

/// Replays DbgcCodec::CompressImpl stage by stage on the same thread
/// budget. Returns false when a replayed section differs from `real`.
bool ReplayEncode(BenchContext& ctx, const dbgc::PointCloud& pc,
                  const DbgcSections& real, uint64_t frame, StageMs* ms) {
  Tracer& tracer = *ctx.tracer;
  dbgc::DbgcOptions opt;
  opt.q_xyz = kQxyz;
  const dbgc::Parallelism par{ctx.pool, 0};
  const dbgc::EntropyBackend backend = dbgc::kDefaultEntropyBackend;

  dbgc::Partition partition;
  {
    Span span(tracer, "den.encode", frame, &ms->den);
    partition = dbgc::PartitionByDensity(pc, opt, par);
  }
  dbgc::ByteBuffer dense;
  {
    Span span(tracer, "oct.encode", frame, &ms->oct);
    if (!partition.dense.empty()) {
      dbgc::PointCloud dense_cloud;
      dense_cloud.Reserve(partition.dense.size());
      for (uint32_t idx : partition.dense) dense_cloud.Add(pc[idx]);
      dbgc::Result<dbgc::OctreeStructure> tree =
          dbgc::Octree::Build(dense_cloud, 2.0 * opt.q_xyz, par);
      if (!tree.ok()) return false;
      dense = dbgc::OctreeCodec::SerializeStructure(tree.value(), par, backend);
    }
  }
  std::vector<std::vector<uint32_t>> group_indices;
  std::vector<dbgc::ConvertedGroup> groups;
  {
    Span span(tracer, "cor.encode", frame, &ms->cor);
    std::vector<double> radii(partition.sparse.size());
    for (size_t i = 0; i < radii.size(); ++i) {
      radii[i] = pc[partition.sparse[i]].Norm();
    }
    for (const auto& local : dbgc::GroupByRadialDistance(radii, opt.num_groups)) {
      group_indices.emplace_back();
      for (uint32_t l : local) group_indices.back().push_back(partition.sparse[l]);
    }
    dbgc::ConverterConfig config;
    config.q_xyz = opt.q_xyz;
    config.spherical = opt.enable_spherical_conversion;
    config.radial_threshold = opt.radial_threshold;
    config.reference_phi_factor = opt.reference_phi_factor;
    config.sensor_u_theta = opt.sensor.AzimuthStep();
    config.sensor_u_phi = opt.sensor.PolarStep();
    config.radial_optimized = opt.enable_radial_optimized_delta;
    for (const auto& indices : group_indices) {
      groups.push_back(dbgc::ConvertGroup(pc.view(), indices, config, par));
    }
  }
  std::vector<dbgc::OrganizeResult> organized(groups.size());
  std::vector<uint32_t> outliers;
  {
    Span span(tracer, "org.encode", frame, &ms->org);
    if (!par.For(0, groups.size(), 1, [&](size_t lo, size_t hi) {
          for (size_t g = lo; g < hi; ++g) {
            organized[g] = dbgc::OrganizeSparsePoints(
                groups[g].role, pc.view(), group_indices[g], groups[g].quantized,
                groups[g].u_theta, groups[g].u_phi, opt.min_polyline_length);
          }
        }).ok()) {
      return false;
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      for (uint32_t l : organized[g].outliers) {
        outliers.push_back(group_indices[g][l]);
      }
    }
  }
  std::vector<dbgc::ByteBuffer> streams(groups.size());
  {
    Span span(tracer, "spa.encode", frame, &ms->spa);
    if (!par.For(0, groups.size(), 1, [&](size_t lo, size_t hi) {
          for (size_t g = lo; g < hi; ++g) {
            streams[g] = dbgc::SparseCodec::EncodeGroup(
                organized[g].polylines, groups[g].params, backend);
          }
        }).ok()) {
      return false;
    }
  }
  dbgc::Result<dbgc::ByteBuffer> outlier = dbgc::Status::Internal("not run");
  {
    Span span(tracer, "out.encode", frame, &ms->out);
    outlier = dbgc::OutlierCodec::Compress(pc, outliers, opt.q_xyz,
                                           opt.outlier_mode, nullptr, backend);
  }
  bool same = outlier.ok() && SameBytes(outlier.value(), real.outlier) &&
              SameBytes(dense, real.dense) &&
              streams.size() == real.groups.size();
  for (size_t g = 0; same && g < streams.size(); ++g) {
    same = SameBytes(streams[g], real.groups[g]);
  }
  return same;
}

/// Replays DbgcCodec::DecompressImpl stage by stage; returns the cloud in
/// the decoder's emission order.
dbgc::Result<dbgc::PointCloud> ReplayDecode(BenchContext& ctx,
                                            const DbgcSections& s,
                                            uint64_t frame, StageMs* ms) {
  Tracer& tracer = *ctx.tracer;
  dbgc::PointCloud out;
  {
    Span span(tracer, "oct.decode", frame, &ms->oct);
    if (!s.dense.empty()) {
      dbgc::Result<dbgc::OctreeStructure> tree =
          dbgc::OctreeCodec::DeserializeStructure(s.dense, s.backend);
      if (!tree.ok()) return tree.status();
      for (const dbgc::Point3& p : dbgc::Octree::ExtractPoints(tree.value())) {
        out.Add(p);
      }
    }
  }
  for (size_t g = 0; g < s.groups.size(); ++g) {
    std::vector<dbgc::Polyline> lines;
    double spa = 0, cor = 0;
    {
      Span span(tracer, "spa.decode", frame, &spa);
      DBGC_RETURN_NOT_OK(dbgc::SparseCodec::DecodeGroup(
          s.groups[g], s.group_params[g], &lines, s.backend));
    }
    {
      Span span(tracer, "cor.decode", frame, &cor);
      for (const dbgc::Polyline& line : lines) {
        for (const dbgc::QPoint& q : line.points) {
          out.Add(dbgc::ReconstructPoint(q, s.group_params[g], s.spherical));
        }
      }
    }
    ms->spa += spa;
    ms->cor += cor;
  }
  {
    Span span(tracer, "out.decode", frame, &ms->out);
    dbgc::Result<dbgc::PointCloud> outliers =
        dbgc::OutlierCodec::Decompress(s.outlier, s.outlier_mode, s.backend);
    if (!outliers.ok()) return outliers.status();
    for (const dbgc::Point3& p : outliers.value()) out.Add(p);
  }
  return out;
}

}  // namespace

void ReplayLayers(BenchContext& ctx, const std::vector<Drive>& drives,
                  size_t max_frames) {
  RunReport& report = *ctx.report;
  Tracer& tracer = *ctx.tracer;
  Progress("replaying codec layers");
  const dbgc::DbgcCodec codec;
  std::vector<double> den, oct_e, cor_e, org, spa_e, out_e, oct_d, cor_d, spa_d,
      out_d, enc_ms, dec_ms, enc1_ms, dec1_ms, coverage, ser_us, parse_us;
  double bytes_dense = 0, bytes_sparse = 0, bytes_outlier = 0, dense = 0,
         outlier = 0, points = 0, frames = 0;

  for (const Drive& drive : drives) {
    for (const dbgc::StreamFrame& sf : drive.frames) {
      if (frames >= static_cast<double>(max_frames)) break;
      const uint64_t id = static_cast<uint64_t>(frames);
      frames += 1;
      const dbgc::PointCloud& pc = sf.cloud;
      // The real codec, at nproc threads and serially.
      dbgc::CompressStats stats;
      dbgc::CompressParams cp;
      cp.q_xyz = kQxyz;
      cp.pool = ctx.pool;
      cp.info = &stats;
      double e = 0, e1 = 0, d = 0, d1 = 0;
      dbgc::Result<dbgc::ByteBuffer> bits = [&] {
        Span span(tracer, "dbgc.encode", id, &e);
        return codec.Compress(pc, cp);
      }();
      cp.max_threads = 1;
      cp.info = nullptr;
      dbgc::Result<dbgc::ByteBuffer> bits1 = [&] {
        Span span(tracer, "dbgc.encode_1thread", id, &e1);
        return codec.Compress(pc, cp);
      }();
      if (!bits.ok() || !bits1.ok() || !SameBytes(bits.value(), bits1.value())) {
        report.Miss("replay: bitstream differs between 1 and nproc threads");
        continue;
      }
      dbgc::DecompressParams dp;
      dp.pool = ctx.pool;
      dbgc::Result<dbgc::PointCloud> decoded = [&] {
        Span span(tracer, "dbgc.decode", id, &d);
        return codec.Decompress(bits.value(), dp);
      }();
      dp.max_threads = 1;
      {
        Span span(tracer, "dbgc.decode_1thread", id, &d1);
        (void)codec.Decompress(bits.value(), dp);
      }
      enc_ms.push_back(e);
      enc1_ms.push_back(e1);
      dec_ms.push_back(d);
      dec1_ms.push_back(d1);

      // Stage replay, cross-checked against the real sections.
      DbgcSections sections;
      StageMs enc, dec;
      if (!ParseSections(bits.value(), &sections).ok() ||
          sections.dense.size() != stats.bytes_dense ||
          sections.outlier.size() != stats.bytes_outlier ||
          !ReplayEncode(ctx, pc, sections, id, &enc)) {
        report.Miss("replay: encode stages differ from the real bitstream");
        continue;
      }
      size_t sparse = 0;
      for (const dbgc::ByteBuffer& g : sections.groups) sparse += g.size();
      if (sparse != stats.bytes_sparse) {
        report.Miss("replay: sparse section bytes differ from CompressStats");
      }
      dbgc::Result<dbgc::PointCloud> replayed =
          ReplayDecode(ctx, sections, id, &dec);
      if (!replayed.ok() || !decoded.ok() ||
          HashCloud(replayed.value()) != HashCloud(decoded.value())) {
        report.Miss("replay: decode stages differ from the real decode");
        continue;
      }
      den.push_back(enc.den);
      oct_e.push_back(enc.oct);
      cor_e.push_back(enc.cor);
      org.push_back(enc.org);
      spa_e.push_back(enc.spa);
      out_e.push_back(enc.out);
      oct_d.push_back(dec.oct);
      cor_d.push_back(dec.cor);
      spa_d.push_back(dec.spa);
      out_d.push_back(dec.out);
      coverage.push_back(enc.Total() / e);
      bytes_dense += static_cast<double>(stats.bytes_dense);
      bytes_sparse += static_cast<double>(stats.bytes_sparse);
      bytes_outlier += static_cast<double>(stats.bytes_outlier);
      dense += static_cast<double>(stats.num_dense);
      outlier += static_cast<double>(stats.num_outliers);
      points += static_cast<double>(pc.size());

      // Frame protocol round trip on the real payload.
      for (int rep = 0; rep < 5; ++rep) {
        double s = 0, p = 0;
        dbgc::ByteBuffer wire;
        {
          Span span(tracer, "proto.serialize", id, &s);
          wire = dbgc::FrameProtocol::Serialize({id, bits.value()});
        }
        {
          Span span(tracer, "proto.parse", id, &p);
          (void)dbgc::FrameProtocol::Parse(wire);
        }
        ser_us.push_back(s * 1e3);
        parse_us.push_back(p * 1e3);
      }
    }
  }
  const double n = frames > 0 ? frames : 1;
  report.Layer("den.encode_ms", Quantile(den, 0.5), "ms");
  report.Layer("oct.encode_ms", Quantile(oct_e, 0.5), "ms");
  report.Layer("oct.decode_ms", Quantile(oct_d, 0.5), "ms");
  report.Layer("cor.encode_ms", Quantile(cor_e, 0.5), "ms");
  report.Layer("cor.decode_ms", Quantile(cor_d, 0.5), "ms");
  report.Layer("org.encode_ms", Quantile(org, 0.5), "ms");
  report.Layer("spa.encode_ms", Quantile(spa_e, 0.5), "ms");
  report.Layer("spa.decode_ms", Quantile(spa_d, 0.5), "ms");
  report.Layer("out.encode_ms", Quantile(out_e, 0.5), "ms");
  report.Layer("out.decode_ms", Quantile(out_d, 0.5), "ms");
  report.Layer("dbgc.encode_ms", Quantile(enc_ms, 0.5), "ms");
  report.Layer("dbgc.decode_ms", Quantile(dec_ms, 0.5), "ms");
  report.Layer("dbgc.stage_coverage", Quantile(coverage, 0.5), "ratio");
  report.Layer("dbgc.bytes_dense", bytes_dense / n, "bytes");
  report.Layer("dbgc.bytes_sparse", bytes_sparse / n, "bytes");
  report.Layer("dbgc.bytes_outlier", bytes_outlier / n, "bytes");
  report.Layer("dbgc.dense_frac", dense / (points > 0 ? points : 1), "fraction");
  report.Layer("dbgc.outlier_frac", outlier / (points > 0 ? points : 1),
               "fraction");
  report.Layer("pool.encode_speedup",
               Quantile(enc1_ms, 0.5) / Quantile(enc_ms, 0.5), "ratio");
  report.Layer("pool.decode_speedup",
               Quantile(dec1_ms, 0.5) / Quantile(dec_ms, 0.5), "ratio");
  report.Layer("proto.serialize_us", Quantile(ser_us, 0.5), "us");
  report.Layer("proto.parse_us", Quantile(parse_us, 0.5), "us");
  report.Samples("replay.frames", den.size());

  Progress("replaying the temporal codec");
  // Temporal codec on each drive in capture order (I-frame first), serial
  // as in the pipeline, against RangeImageCodec intra on the same P-frames.
  dbgc::TemporalConfig tc;
  tc.keyframe_interval = kKeyframeInterval;
  tc.intra_options.q_xyz = kQxyz;
  const dbgc::RangeImageCodec range_image;
  std::vector<double> i_enc, p_enc, p_dec;
  double i_bytes = 0, p_bytes = 0, ri_bytes = 0, i_count = 0, p_count = 0;
  size_t done = 0;
  for (const Drive& drive : drives) {
    if (done >= max_frames) break;
    dbgc::TemporalEncoder encoder(tc);
    dbgc::TemporalDecoder decoder(tc.intra_options, false);
    for (const dbgc::StreamFrame& sf : drive.frames) {
      if (done++ >= max_frames) break;
      const bool key = encoder.next_is_keyframe();
      dbgc::CompressParams cp;
      cp.q_xyz = kQxyz;
      double e = 0, d = 0;
      dbgc::Result<dbgc::ByteBuffer> packet = [&] {
        Span span(tracer, key ? "temporal.i_encode" : "temporal.p_encode", done,
                  &e);
        return encoder.EncodeFrame(sf.cloud, sf.pose, cp);
      }();
      if (!packet.ok()) {
        report.Miss("replay: temporal encode failed");
        break;
      }
      dbgc::Result<dbgc::PointCloud> out = [&] {
        Span span(tracer, key ? "temporal.i_decode" : "temporal.p_decode", done,
                  &d);
        return decoder.DecodeFrame(packet.value());
      }();
      if (!out.ok()) {
        report.Miss("replay: temporal decode failed");
        break;
      }
      if (key) {
        i_enc.push_back(e);
        i_bytes += static_cast<double>(packet.value().size());
        i_count += 1;
        continue;
      }
      p_enc.push_back(e);
      p_dec.push_back(d);
      p_bytes += static_cast<double>(packet.value().size());
      p_count += 1;
      dbgc::Result<dbgc::ByteBuffer> ri = range_image.Compress(sf.cloud, kQxyz);
      if (ri.ok()) ri_bytes += static_cast<double>(ri.value().size());
    }
  }
  report.Layer("temporal.i_encode_ms", Quantile(i_enc, 0.5), "ms");
  report.Layer("temporal.p_encode_ms", Quantile(p_enc, 0.5), "ms");
  report.Layer("temporal.p_decode_ms", Quantile(p_dec, 0.5), "ms");
  report.Layer("temporal.i_bytes", i_bytes / (i_count > 0 ? i_count : 1),
               "bytes");
  report.Layer("temporal.p_bytes", p_bytes / (p_count > 0 ? p_count : 1),
               "bytes");
  report.Layer("temporal.p_over_rangeimage_bytes",
               p_bytes / (ri_bytes > 0 ? ri_bytes : 1), "ratio");
  report.Samples("replay.temporal_p_frames", p_enc.size());
}

}  // namespace perfbench
