// Byte formats of the stream engine, each defined once: the tuple codec that
// connectors, checkpoints and the durable sink share, and the snapshot
// layouts of the stateful operators that both the operators and their
// resharders (plan_rewrite.hpp) read and write.
//
// Tuple layout: the six metadata ids (zigzag varints), the payload (entry
// count, then per entry a length-prefixed key and a value), an optional
// trace context ('T' + trace id + parent span, present only for sampled
// tuples), and a masked CRC-32C trailer over everything before it. A scalar
// value is written by the common Value codec, whose leading byte is the
// value kind. An opaque value is the kOpaque kind byte, a one-byte type tag,
// and the type's own body. Exactly two opaque types have a codec: the OT
// frame (am::ImageValue, tag 'I') and the cluster report
// (cluster::ClusterReportValue, tag 'R', its optional rendering included).
//
// No reader for older layouts exists: bytes written by a build that used a
// different layout fail to decode as Corruption.
#pragma once

#include <array>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.hpp"
#include "spe/tuple.hpp"

namespace strata::spe {

// ----------------------------------------------------------- tuple codec

/// Appends the tuple's encoding to *out. An opaque payload value of a type
/// without a codec fails with InvalidArgument naming the type (nothing
/// useful is left in *out then; callers discard it).
[[nodiscard]] Status EncodeTuple(const Tuple& tuple, std::string* out);

/// Decodes exactly one tuple spanning all of `data`. A checksum mismatch,
/// truncation, trailing bytes or an unknown opaque tag is Corruption.
[[nodiscard]] Result<Tuple> DecodeTuple(std::string_view data);

// ------------------------------------------------------ operator snapshots
//
// An empty blob is a fresh operator (one that had no state, or had exited,
// when the epoch completed); callers handle it before decoding.

/// JoinOperator state: per side, the buffered (key, tuple) pairs oldest
/// first, and the per-side event-time watermarks. The operator keeps its
/// live state in this struct, so the snapshot is exactly what it runs on.
struct JoinState {
  using Buffer = std::deque<std::pair<std::string, Tuple>>;

  std::array<Buffer, 2> buffers;  ///< [left, right]
  std::array<Timestamp, 2> max_time = {std::numeric_limits<Timestamp>::min(),
                                       std::numeric_limits<Timestamp>::min()};

  /// Buffered tuples go through EncodeTuple, so a buffered OT frame is
  /// checkpointed with its pixels.
  [[nodiscard]] Status EncodeTo(std::string* out) const;
  [[nodiscard]] static Result<JoinState> Decode(std::string_view in);
};

/// AggregateOperator snapshot: the closed horizon and every open window,
/// keyed by (window start, group key). Accumulators stay opaque bytes
/// (AggregateSpec::encode_acc output), so resharding needs no user codec.
struct AggregateSnapshot {
  struct Window {
    Timestamp max_stimulus = 0;
    Timestamp max_event_time = 0;
    std::string acc;
  };

  Timestamp closed_horizon = std::numeric_limits<Timestamp>::min();
  std::map<std::pair<Timestamp, std::string>, Window> windows;

  void EncodeTo(std::string* out) const;
  [[nodiscard]] static Result<AggregateSnapshot> Decode(std::string_view in);
};

}  // namespace strata::spe
