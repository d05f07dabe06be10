// Connector record format: how a tuple travels through a pub/sub topic
// between STRATA's connectors (Raw Data Connector, Event Connector).
//
// Every record is the publisher's effectively-once tag, a sequence number
// as one varint, followed by the tuple in the one tuple codec of
// spe/codec.hpp (OT frames and cluster reports included, CRC-protected). A
// publisher that is not tagging writes seq 0. The durable sink stores bare
// EncodeTuple bytes, without a tag.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "spe/codec.hpp"
#include "spe/tuple.hpp"

namespace strata::core {

using spe::DecodeTuple;
using spe::EncodeTuple;

/// Appends one connector record: the tag `seq`, then EncodeTuple. The tag
/// is a per-publisher monotonic sequence number, 0 meaning untagged. A
/// checkpoint-recovered publisher replays tuples with their original tags,
/// so a subscriber can drop duplicates by per-partition sequence floor
/// (per-key ordering keeps the sequence monotonic within each partition).
[[nodiscard]] Status EncodeTaggedTuple(std::uint64_t seq,
                                       const spe::Tuple& tuple,
                                       std::string* out);

/// Decodes one connector record and stores its tag in *seq.
[[nodiscard]] Result<spe::Tuple> DecodeTaggedTuple(std::string_view data,
                                                   std::uint64_t* seq);

/// Partitioning key that keeps per-entity ordering through a topic:
/// job|layer for raw data, job|specimen for events.
[[nodiscard]] std::string RawDataKey(const spe::Tuple& tuple);
[[nodiscard]] std::string EventKey(const spe::Tuple& tuple);

}  // namespace strata::core
