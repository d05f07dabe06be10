// Connector record format: how a tuple travels through a pub/sub topic
// between STRATA's connectors (Raw Data Connector, Event Connector).
//
// Every record is the publisher's effectively-once tag, (epoch, seq) as two
// varints, followed by the tuple in the one tuple codec of spe/codec.hpp
// (OT frames and cluster reports included, CRC-protected). A publisher that
// is not tagging writes the tag (0, 0). The durable sink stores bare
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

/// Effectively-once transport tag: the publisher's checkpoint epoch and a
/// per-publisher monotonic sequence number. A checkpoint-recovered publisher
/// replays tuples with their original tags, so a subscriber can drop
/// duplicates by per-partition sequence floor (per-key ordering keeps the
/// sequence monotonic within each partition). seq 0 means untagged.
struct TransportTag {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
};

/// Appends one connector record: the tag, then EncodeTuple.
[[nodiscard]] Status EncodeTaggedTuple(const TransportTag& tag,
                                       const spe::Tuple& tuple,
                                       std::string* out);

/// Decodes one connector record and stores its tag in *tag.
[[nodiscard]] Result<spe::Tuple> DecodeTaggedTuple(std::string_view data,
                                                   TransportTag* tag);

/// Partitioning key that keeps per-entity ordering through a topic:
/// job|layer for raw data, job|specimen for events.
[[nodiscard]] std::string RawDataKey(const spe::Tuple& tuple);
[[nodiscard]] std::string EventKey(const spe::Tuple& tuple);

}  // namespace strata::core
