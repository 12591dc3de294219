#include "baselines/streaming.h"

#include <bit>
#include <string>

#include "common/serial.h"

namespace operb::baselines {

std::size_t BeginState(std::uint32_t magic, double zeta,
                       std::vector<std::uint8_t>* out) {
  const std::size_t start = out->size();
  serial::PutU32(magic, out);
  serial::PutU8(kStateVersion, out);
  serial::PutF64(zeta, out);
  return start;
}

void EndState(std::size_t start, std::vector<std::uint8_t>* out) {
  const std::uint64_t sum = serial::Fnv1a64(std::span<const std::uint8_t>(
      out->data() + start, out->size() - start));
  serial::PutU64(sum, out);
}

Status CheckStateHeader(std::uint32_t magic, std::string_view name,
                        double zeta, std::span<const std::uint8_t> in,
                        std::size_t* pos) {
  std::uint32_t m = 0;
  std::uint8_t version = 0;
  if (!serial::GetU32(in, pos, &m) || !serial::GetU8(in, pos, &version)) {
    return Status::Corruption("truncated simplifier state header");
  }
  if (m != magic) {
    return Status::Corruption("simplifier state magic mismatch for " +
                              std::string(name));
  }
  if (version != kStateVersion) {
    return Status::InvalidArgument("unsupported simplifier state version " +
                                   std::to_string(version));
  }
  double stored = 0.0;
  if (!serial::GetF64(in, pos, &stored)) {
    return Status::Corruption("truncated simplifier state header");
  }
  if (std::bit_cast<std::uint64_t>(stored) !=
      std::bit_cast<std::uint64_t>(zeta)) {
    return Status::InvalidArgument(
        "simplifier state zeta " + std::to_string(stored) +
        " does not match the configured zeta " + std::to_string(zeta));
  }
  return Status::OK();
}

Status VerifyStateChecksum(std::span<const std::uint8_t> in,
                           std::size_t start, std::size_t* pos) {
  const std::size_t payload_end = *pos;
  std::uint64_t expect = 0;
  if (!serial::GetU64(in, pos, &expect)) {
    return Status::Corruption("truncated simplifier state checksum");
  }
  if (serial::Fnv1a64(in.subspan(start, payload_end - start)) != expect) {
    return Status::Corruption("simplifier state checksum mismatch");
  }
  return Status::OK();
}

}  // namespace operb::baselines
