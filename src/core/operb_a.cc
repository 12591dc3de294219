#include "core/operb_a.h"

#include "common/check.h"
#include "common/serial.h"
#include "core/patch.h"

namespace operb::core {

namespace {

constexpr std::uint32_t kOperbAStateMagic = 0x5341'504Fu;  // "OPAS"

}  // namespace

LazyPatcher::LazyPatcher(const OperbAOptions& options) : options_(options) {
  OPERB_CHECK_MSG(options.Validate().ok(), "invalid OperbAOptions");
}

void LazyPatcher::SetSink(traj::SegmentSink sink) {
  OPERB_CHECK_MSG(!x_.has_value(), "SetSink after the first Accept");
  sink_ = std::move(sink);
}

void LazyPatcher::Accept(traj::RepresentedSegment segment) {
  if (IsAnomalous(segment)) ++anomalous_segments_;

  if (!x_.has_value()) {
    x_ = segment;
    return;
  }
  if (!y_.has_value()) {
    if (IsAnomalous(segment)) {
      // Park the anomalous segment until its successor determines whether
      // a patch point exists.
      y_ = segment;
      return;
    }
    Emit(*x_);
    x_ = segment;
    return;
  }

  // x_ = R_{i-1}, y_ = anomalous R_i, segment = R_{i+1}.
  const std::optional<geo::Vec2> g =
      ComputePatchPoint(*x_, segment, options_);
  if (g.has_value()) {
    ++patches_applied_;
    // Extend R_{i-1} along its own line to G; R_{i+1} now starts from G on
    // its own line. The eliminated anomalous segment's two points split
    // between the neighbours — its start (== R_{i-1}'s old end) lies on
    // R_{i-1}'s line and its end (== R_{i+1}'s start) on R_{i+1}'s line —
    // so neither index range changes and no error is introduced
    // (Section 5.2). The junction leaves a one-index gap between the
    // neighbours' covered ranges, which the representation validator and
    // the metrics recognize via the patch flags.
    x_->end = *g;
    x_->end_is_patch = true;
    Emit(*x_);
    segment.start = *g;
    segment.start_is_patch = true;
    x_ = segment;
    y_.reset();
    return;
  }
  // No patch: release the buffer in order.
  Emit(*x_);
  Emit(*y_);
  y_.reset();
  x_ = segment;
}

void LazyPatcher::Finish() {
  if (x_.has_value()) Emit(*x_);
  if (y_.has_value()) Emit(*y_);
  x_.reset();
  y_.reset();
}

void LazyPatcher::Reset() {
  x_.reset();
  y_.reset();
  anomalous_segments_ = 0;
  patches_applied_ = 0;
}

void LazyPatcher::Serialize(std::vector<std::uint8_t>* out) const {
  serial::PutU8(x_.has_value() ? 1 : 0, out);
  if (x_.has_value()) traj::SerializeSegment(*x_, out);
  serial::PutU8(y_.has_value() ? 1 : 0, out);
  if (y_.has_value()) traj::SerializeSegment(*y_, out);
  serial::PutU64(anomalous_segments_, out);
  serial::PutU64(patches_applied_, out);
}

Status LazyPatcher::Deserialize(std::span<const std::uint8_t> in,
                                std::size_t* pos) {
  for (std::optional<traj::RepresentedSegment>* slot : {&x_, &y_}) {
    std::uint8_t present = 0;
    if (!serial::GetU8(in, pos, &present)) {
      return Status::Corruption("truncated lazy-patcher state");
    }
    if (present > 1) {
      return Status::Corruption("lazy-patcher flag out of range");
    }
    if (present != 0) {
      traj::RepresentedSegment s;
      OPERB_RETURN_IF_ERROR(traj::DeserializeSegment(in, pos, &s));
      *slot = s;
    } else {
      slot->reset();
    }
  }
  std::uint64_t anomalous = 0;
  std::uint64_t patches = 0;
  if (!serial::GetU64(in, pos, &anomalous) ||
      !serial::GetU64(in, pos, &patches)) {
    return Status::Corruption("truncated lazy-patcher state");
  }
  anomalous_segments_ = static_cast<std::size_t>(anomalous);
  patches_applied_ = static_cast<std::size_t>(patches);
  return Status::OK();
}

OperbAStream::OperbAStream(const OperbAOptions& options,
                           std::string_view name)
    : name_(name), options_(options), inner_(options.base), patcher_(options) {
  // Segments flow inner -> patcher: one indirect call per *determined
  // segment*.
  inner_.SetSink(
      [this](const traj::RepresentedSegment& s) { patcher_.Accept(s); });
}

void OperbAStream::SetSink(traj::SegmentSink sink) {
  patcher_.SetSink(std::move(sink));
}

void OperbAStream::Push(const geo::Point& p) { inner_.Push(p); }

void OperbAStream::Push(std::span<const geo::Point> points) {
  inner_.Push(points);
}

void OperbAStream::Finish() {
  inner_.Finish();
  patcher_.Finish();
}

void OperbAStream::Reset() {
  inner_.Reset();
  patcher_.Reset();
}

OperbAStats OperbAStream::stats() const {
  OperbAStats s;
  s.base = inner_.stats();
  s.anomalous_segments = patcher_.anomalous_segments();
  s.patches_applied = patcher_.patches_applied();
  return s;
}

void OperbAStream::Serialize(std::vector<std::uint8_t>* out) const {
  const std::size_t start =
      baselines::BeginState(kOperbAStateMagic, options_.base.zeta, out);
  inner_.SerializeFields(out);
  patcher_.Serialize(out);
  baselines::EndState(start, out);
}

Status OperbAStream::Deserialize(std::span<const std::uint8_t> in,
                                 std::size_t* pos) {
  const std::size_t start = *pos;
  OPERB_RETURN_IF_ERROR(baselines::CheckStateHeader(
      kOperbAStateMagic, name_, options_.base.zeta, in, pos));
  OPERB_RETURN_IF_ERROR(inner_.DeserializeFields(in, pos));
  OPERB_RETURN_IF_ERROR(patcher_.Deserialize(in, pos));
  return baselines::VerifyStateChecksum(in, start, pos);
}

traj::PiecewiseRepresentation SimplifyOperbA(
    const traj::Trajectory& trajectory, const OperbAOptions& options,
    OperbAStats* stats) {
  OperbAStream stream(options);
  traj::PiecewiseRepresentation out;
  if (trajectory.size() < 2) {
    if (stats != nullptr) *stats = stream.stats();
    return out;
  }
  stream.SetSink(
      [&out](const traj::RepresentedSegment& s) { out.Append(s); });
  stream.Push(std::span<const geo::Point>(trajectory.points()));
  stream.Finish();
  if (stats != nullptr) *stats = stream.stats();
  return out;
}

}  // namespace operb::core
