// The IPFIX codec's test oracle: the byte-at-a-time encoder and decoder
// the library shipped before it moved to whole-field stores and loads.
// Every octet goes through a bounds-checked append or read, so the
// framing is easy to check by eye; the differential tests hold the
// library's codec to exactly these bytes and these accept/reject
// decisions.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "flowmon/ipfix.hpp"

namespace steelnet::flowmon::oracle {

/// Big-endian append of the low `width` octets of `value`.
void put_be(std::vector<std::uint8_t>& buf, std::uint64_t value,
            std::size_t width);
/// Overwrites the big-endian u16 at `at`.
void patch_be16(std::vector<std::uint8_t>& buf, std::size_t at,
                std::uint16_t value);
/// Bounded big-endian read; false if fewer than `width` octets remain.
[[nodiscard]] bool read_be(const std::vector<std::uint8_t>& buf,
                           std::size_t& at, std::size_t width,
                           std::uint64_t& out);

/// flowmon::encode_message_fn, one octet at a time.
[[nodiscard]] std::vector<std::uint8_t> encode_message_fn(
    const MessageHeader& header, const Template& tmpl, bool include_template,
    std::size_t record_count,
    const std::function<std::uint64_t(std::size_t, std::size_t)>& value);

/// flowmon::encode_message through encode_message_fn above.
[[nodiscard]] std::vector<std::uint8_t> encode_message(
    const MessageHeader& header, const Template& tmpl, bool include_template,
    const std::vector<ExportRecord>& records);

/// flowmon::decode_message, one bounds-checked octet at a time.
[[nodiscard]] std::optional<DecodedMessage> decode_message(
    const std::vector<std::uint8_t>& payload, TemplateStore& store,
    std::uint64_t session = 0);

}  // namespace steelnet::flowmon::oracle
