#include "store/segment_file.h"

#include <limits>
#include <utility>

#include "codec/segment_codec.h"
#include "store/store_metrics.h"

namespace operb::store {

namespace {

/// std::fseek takes a long, which is 32 bits on LLP64 platforms; a
/// position beyond its range must fail cleanly instead of wrapping into
/// a misread. (On LP64 this is a no-op guard.)
bool SeekTo(std::FILE* file, std::uint64_t pos) {
  if (pos > static_cast<std::uint64_t>(std::numeric_limits<long>::max())) {
    return false;
  }
  return std::fseek(file, static_cast<long>(pos), SEEK_SET) == 0;
}

}  // namespace

Result<std::unique_ptr<SegmentFileWriter>> SegmentFileWriter::Create(
    const std::string& path, double zeta, std::size_t block_budget_bytes,
    Env* env) {
  OPERB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                         ResolveEnv(env)->NewWritableFile(path));
  std::vector<std::uint8_t> header;
  EncodeFileHeader(zeta, &header);
  const Status written = [&] {
    OPERB_RETURN_IF_ERROR(file->Append(header));
    return file->Flush();
  }();
  if (!written.ok()) {
    return Status::IOError("cannot write segment file header to " + path);
  }
  std::unique_ptr<SegmentFileWriter> writer(
      new SegmentFileWriter(std::move(file), block_budget_bytes));
  writer->stats_.file_bytes = header.size();
  return writer;
}

SegmentFileWriter::SegmentFileWriter(std::unique_ptr<WritableFile> file,
                                     std::size_t block_budget_bytes)
    : block_budget_bytes_(block_budget_bytes), file_(std::move(file)) {}

SegmentFileWriter::~SegmentFileWriter() { Close(); }

Status SegmentFileWriter::Append(const traj::TimedSegment& segment) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    return Status::InvalidArgument("append to a closed segment file writer");
  }
  pending_[segment.object_id].push_back(segment);
  ++pending_segments_;
  ++stats_.segments;
  if (static_cast<double>(pending_segments_) * estimated_segment_bytes_ >=
      static_cast<double>(block_budget_bytes_)) {
    const Status s = SealLocked();
    if (!s.ok() && first_error_.ok()) first_error_ = s;
  }
  return first_error_;
}

Status SegmentFileWriter::SealLocked() {
  if (pending_segments_ == 0) return Status::OK();
  std::vector<traj::TimedSegment> block;
  block.reserve(pending_segments_);
  for (const auto& [id, segments] : pending_) {
    block.insert(block.end(), segments.begin(), segments.end());
  }
  pending_.clear();
  pending_segments_ = 0;

  std::vector<std::uint8_t> payload;
  codec::EncodeSegmentBlock(block, &payload);
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    // Unreachable while StoreWriterOptions::Validate caps the budget at
    // 1 GiB; refuse to write a wrapped length prefix if it regresses.
    return Status::Internal("store block payload exceeds the u32 frame");
  }
  const BlockFooter footer = MakeFooter(block, payload);

  std::vector<std::uint8_t> frame;
  frame.reserve(4 + payload.size() + kBlockFooterBytes);
  const std::uint32_t len = footer.payload_bytes;
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  EncodeFooter(footer, &frame);

  const Status written = [&] {
    OPERB_RETURN_IF_ERROR(file_->Append(frame));
    return file_->Flush();
  }();
  if (!written.ok()) {
    return Status::IOError("segment file block write failed: " +
                           written.message());
  }
  ++stats_.blocks;
  stats_.payload_bytes += payload.size();
  stats_.file_bytes += frame.size();
  if constexpr (obs::kMetricsEnabled) {
    StoreWriteMetrics& m = GetStoreWriteMetrics();
    m.blocks_sealed->Increment();
    m.file_flushes->Increment();
    m.bytes_written->Add(frame.size());
  }
  estimated_segment_bytes_ =
      static_cast<double>(payload.size()) / static_cast<double>(block.size());
  return Status::OK();
}

Status SegmentFileWriter::Close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return first_error_;
  closed_ = true;
  const Status seal = SealLocked();
  if (!seal.ok() && first_error_.ok()) first_error_ = seal;
  const Status closed = file_->Close();
  if (!closed.ok() && first_error_.ok()) first_error_ = closed;
  file_.reset();
  return first_error_;
}

Result<std::unique_ptr<SegmentFileReader>> SegmentFileReader::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError("cannot open segment file " + path);
  }
  std::unique_ptr<SegmentFileReader> reader(new SegmentFileReader());
  reader->path_ = path;
  reader->file_ = file;

  if (std::fseek(file, 0, SEEK_END) != 0) {
    return Status::IOError("cannot seek in segment file " + path);
  }
  const long file_size_l = std::ftell(file);
  if (file_size_l < 0) {
    return Status::IOError("cannot size segment file " + path);
  }
  const std::uint64_t file_size = static_cast<std::uint64_t>(file_size_l);
  reader->file_bytes_ = file_size;

  std::vector<std::uint8_t> header(kFileHeaderBytes);
  if (file_size < kFileHeaderBytes) {
    return Status::Corruption("store file shorter than its header: " + path);
  }
  if (!SeekTo(file, 0) ||
      std::fread(header.data(), 1, header.size(), file) != header.size()) {
    return Status::IOError("cannot read segment file header from " + path);
  }
  OPERB_ASSIGN_OR_RETURN(reader->zeta_, DecodeFileHeader(header));

  // Structural scan: length prefix -> footer, payloads skipped. An
  // *incomplete* final frame is the torn tail a crashed append leaves
  // and is dropped (valid-prefix rule); a size-complete frame that
  // fails validation is Corruption — the writer flushed it as
  // committed, so dropping it would silently lose data.
  std::uint64_t pos = kFileHeaderBytes;
  while (pos < file_size) {
    const std::uint64_t remaining = file_size - pos;
    if (remaining < 4) break;  // partial length prefix
    std::uint8_t len_bytes[4];
    if (!SeekTo(file, pos) || std::fread(len_bytes, 1, 4, file) != 4) {
      return Status::IOError("cannot read block length in " + path);
    }
    const std::uint32_t payload_bytes =
        static_cast<std::uint32_t>(len_bytes[0]) |
        (static_cast<std::uint32_t>(len_bytes[1]) << 8) |
        (static_cast<std::uint32_t>(len_bytes[2]) << 16) |
        (static_cast<std::uint32_t>(len_bytes[3]) << 24);
    if (remaining <
        4 + static_cast<std::uint64_t>(payload_bytes) + kBlockFooterBytes) {
      break;  // partial tail frame
    }
    std::vector<std::uint8_t> footer_data(kBlockFooterBytes);
    if (!SeekTo(file, pos + 4 + payload_bytes) ||
        std::fread(footer_data.data(), 1, footer_data.size(), file) !=
            footer_data.size()) {
      return Status::IOError("cannot read block footer in " + path);
    }
    OPERB_ASSIGN_OR_RETURN(const BlockFooter footer,
                           DecodeFooter(footer_data));
    if (footer.payload_bytes != payload_bytes) {
      return Status::Corruption(
          "block length prefix disagrees with its footer in " + path);
    }
    OPERB_RETURN_IF_ERROR(ValidateFooterRanges(footer));
    BlockRef ref;
    ref.payload_offset = pos + 4;
    ref.footer = footer;
    reader->blocks_.push_back(ref);
    pos += 4 + payload_bytes + kBlockFooterBytes;
  }
  if (pos < file_size) {
    reader->open_info_.tail_dropped = true;
    reader->open_info_.dropped_bytes = file_size - pos;
  }
  return reader;
}

SegmentFileReader::~SegmentFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::vector<traj::TimedSegment>> SegmentFileReader::ReadBlock(
    std::size_t i) const {
  const BlockRef& ref = blocks_[i];
  std::vector<std::uint8_t> payload(ref.footer.payload_bytes);
  {
    const std::lock_guard<std::mutex> lock(file_mu_);
    if (!SeekTo(file_, ref.payload_offset) ||
        std::fread(payload.data(), 1, payload.size(), file_) !=
            payload.size()) {
      return Status::IOError("cannot read store block from " + path_);
    }
  }
  if (BlockChecksum(payload, ref.footer) != ref.footer.checksum) {
    return Status::Corruption("store block " + std::to_string(i) +
                              " checksum mismatch in " + path_);
  }
  OPERB_ASSIGN_OR_RETURN(std::vector<traj::TimedSegment> segments,
                         codec::DecodeSegmentBlock(payload));
  if (segments.size() != ref.footer.segment_count) {
    return Status::Corruption("store block " + std::to_string(i) +
                              " segment count mismatch in " + path_);
  }
  return segments;
}

}  // namespace operb::store
