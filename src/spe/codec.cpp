#include "spe/codec.hpp"

#include <typeinfo>

#include "am/image.hpp"
#include "clustering/report.hpp"
#include "common/codec.hpp"
#include "common/crc32.hpp"

namespace strata::spe {

namespace {

// Optional trailing trace-context field: present only for sampled tuples, so
// the unsampled common case pays zero bytes.
constexpr char kTraceMarker = 'T';
constexpr char kOpaqueKind = static_cast<char>(ValueKind::kOpaque);

// ------------------------------------------------------------ opaque types

void PutImage(const am::GrayImage& image, std::string* out) {
  codec::PutVarint64(out, image.serialized_size());
  image.SerializeTo(out);
}

Result<am::GrayImage> GetImage(std::string_view* in) {
  std::string_view bytes;
  if (!codec::GetLengthPrefixed(in, &bytes)) {
    return Status::Corruption("DecodeTuple: truncated image");
  }
  return am::GrayImage::Deserialize(bytes);
}

void EncodeImageValue(const OpaqueValue& value, std::string* out) {
  PutImage(static_cast<const am::ImageValue&>(value).image(), out);
}

Result<OpaqueRef> DecodeImageValue(std::string_view* in) {
  auto image = GetImage(in);
  if (!image.ok()) return image.status();
  return OpaqueRef(
      std::make_shared<const am::ImageValue>(std::move(image).value()));
}

void EncodeReportValue(const OpaqueValue& value, std::string* out) {
  const cluster::ClusterReport& report =
      static_cast<const cluster::ClusterReportValue&>(value).report();
  codec::PutVarint64Signed(out, report.job);
  codec::PutVarint64Signed(out, report.layer);
  codec::PutVarint64Signed(out, report.specimen);
  codec::PutVarint64(out, report.window_events);
  codec::PutVarint64(out, report.noise_events);
  codec::PutVarint64(out, report.clusters.size());
  for (const cluster::ClusterSummary& c : report.clusters) {
    codec::PutVarint64Signed(out, c.cluster_id);
    codec::PutVarint64(out, c.point_count);
    codec::PutDouble(out, c.total_weight);
    codec::PutDouble(out, c.min_x);
    codec::PutDouble(out, c.max_x);
    codec::PutDouble(out, c.min_y);
    codec::PutDouble(out, c.max_y);
    codec::PutVarint64Signed(out, c.min_layer);
    codec::PutVarint64Signed(out, c.max_layer);
    codec::PutDouble(out, c.centroid_x);
    codec::PutDouble(out, c.centroid_y);
  }
  out->push_back(report.rendering ? 1 : 0);
  if (report.rendering) PutImage(*report.rendering, out);
}

Result<OpaqueRef> DecodeReportValue(std::string_view* in) {
  cluster::ClusterReport report;
  std::uint64_t window_events = 0;
  std::uint64_t noise_events = 0;
  std::uint64_t count = 0;
  if (!codec::GetVarint64Signed(in, &report.job) ||
      !codec::GetVarint64Signed(in, &report.layer) ||
      !codec::GetVarint64Signed(in, &report.specimen) ||
      !codec::GetVarint64(in, &window_events) ||
      !codec::GetVarint64(in, &noise_events) ||
      !codec::GetVarint64(in, &count) || count > in->size()) {
    return Status::Corruption("DecodeTuple: truncated cluster report");
  }
  report.window_events = window_events;
  report.noise_events = noise_events;
  report.clusters.resize(count);
  for (cluster::ClusterSummary& c : report.clusters) {
    std::int64_t id = 0;
    std::uint64_t points = 0;
    if (!codec::GetVarint64Signed(in, &id) ||
        !codec::GetVarint64(in, &points) ||
        !codec::GetDouble(in, &c.total_weight) ||
        !codec::GetDouble(in, &c.min_x) || !codec::GetDouble(in, &c.max_x) ||
        !codec::GetDouble(in, &c.min_y) || !codec::GetDouble(in, &c.max_y) ||
        !codec::GetVarint64Signed(in, &c.min_layer) ||
        !codec::GetVarint64Signed(in, &c.max_layer) ||
        !codec::GetDouble(in, &c.centroid_x) ||
        !codec::GetDouble(in, &c.centroid_y)) {
      return Status::Corruption("DecodeTuple: truncated cluster summary");
    }
    c.cluster_id = static_cast<int>(id);
    c.point_count = points;
  }
  if (in->empty() || static_cast<unsigned char>(in->front()) > 1) {
    return Status::Corruption("DecodeTuple: bad cluster report rendering flag");
  }
  const bool rendered = in->front() == 1;
  in->remove_prefix(1);
  if (rendered) {
    auto image = GetImage(in);
    if (!image.ok()) return image.status();
    report.rendering =
        std::make_shared<const am::GrayImage>(std::move(image).value());
  }
  return OpaqueRef(
      std::make_shared<const cluster::ClusterReportValue>(std::move(report)));
}

/// The opaque types a tuple can carry across a process boundary or into a
/// snapshot, matched by exact dynamic type on encode and by tag on decode.
struct OpaqueCodec {
  char tag;
  const std::type_info* type;
  void (*encode)(const OpaqueValue&, std::string*);
  Result<OpaqueRef> (*decode)(std::string_view*);
};

const OpaqueCodec kOpaqueCodecs[] = {
    {'I', &typeid(am::ImageValue), EncodeImageValue, DecodeImageValue},
    {'R', &typeid(cluster::ClusterReportValue), EncodeReportValue,
     DecodeReportValue},
};

Status EncodeOpaque(std::string_view key, const OpaqueRef& ref,
                    std::string* out) {
  if (ref) {
    for (const OpaqueCodec& codec : kOpaqueCodecs) {
      if (typeid(*ref) != *codec.type) continue;
      out->push_back(kOpaqueKind);
      out->push_back(codec.tag);
      codec.encode(*ref, out);
      return Status::Ok();
    }
  }
  return Status::InvalidArgument(
      "EncodeTuple: opaque type '" +
      std::string(ref ? ref->TypeName() : "null") + "' under key '" +
      std::string(key) + "' has no codec");
}

Status DecodeOpaque(std::string_view* in, Value* out) {
  if (in->empty()) return Status::Corruption("DecodeTuple: missing opaque tag");
  const char tag = in->front();
  in->remove_prefix(1);
  for (const OpaqueCodec& codec : kOpaqueCodecs) {
    if (codec.tag != tag) continue;
    auto ref = codec.decode(in);
    if (!ref.ok()) return ref.status();
    *out = Value(std::move(ref).value());
    return Status::Ok();
  }
  return Status::Corruption("DecodeTuple: unknown opaque tag " +
                            std::to_string(static_cast<unsigned char>(tag)));
}

}  // namespace

// ----------------------------------------------------------- tuple codec

Status EncodeTuple(const Tuple& tuple, std::string* out) {
  // The body is followed by a masked CRC-32C trailer. Structural checks
  // alone cannot catch a bit flip inside a fixed-width field (a double's
  // mantissa, an image pixel), and tuples cross process and network
  // boundaries: any mutation must decode to a Status, never to silently
  // different data.
  const std::size_t start = out->size();
  // One allocation up front: an OT frame's pixels are appended in place.
  out->reserve(start + tuple.payload.ApproxBytes() + 64);
  codec::PutVarint64Signed(out, tuple.event_time);
  codec::PutVarint64Signed(out, tuple.job);
  codec::PutVarint64Signed(out, tuple.layer);
  codec::PutVarint64Signed(out, tuple.specimen);
  codec::PutVarint64Signed(out, tuple.portion);
  codec::PutVarint64Signed(out, tuple.stimulus);

  codec::PutVarint64(out, tuple.payload.size());
  for (const auto& [key, value] : tuple.payload) {
    codec::PutLengthPrefixed(out, key);
    if (value.kind() == ValueKind::kOpaque) {
      STRATA_RETURN_IF_ERROR(EncodeOpaque(key, value.AsOpaqueRef(), out));
    } else {
      STRATA_RETURN_IF_ERROR(EncodeValue(value, out));
    }
  }
  if (tuple.trace.sampled()) {
    out->push_back(kTraceMarker);
    codec::PutFixed64(out, tuple.trace.trace_id);
    codec::PutFixed64(out, tuple.trace.parent_span);
  }
  const std::uint32_t crc = Crc32c(std::string_view(*out).substr(start));
  codec::PutFixed32(out, MaskCrc(crc));
  return Status::Ok();
}

Result<Tuple> DecodeTuple(std::string_view data) {
  if (data.size() < 4) {
    return Status::Corruption("DecodeTuple: missing checksum trailer");
  }
  std::string_view trailer = data.substr(data.size() - 4);
  std::uint32_t masked = 0;
  (void)codec::GetFixed32(&trailer, &masked);
  data.remove_suffix(4);
  if (UnmaskCrc(masked) != Crc32c(data)) {
    return Status::Corruption("DecodeTuple: checksum mismatch");
  }

  Tuple tuple;
  std::uint64_t payload_count = 0;
  if (!codec::GetVarint64Signed(&data, &tuple.event_time) ||
      !codec::GetVarint64Signed(&data, &tuple.job) ||
      !codec::GetVarint64Signed(&data, &tuple.layer) ||
      !codec::GetVarint64Signed(&data, &tuple.specimen) ||
      !codec::GetVarint64Signed(&data, &tuple.portion) ||
      !codec::GetVarint64Signed(&data, &tuple.stimulus) ||
      !codec::GetVarint64(&data, &payload_count)) {
    return Status::Corruption("DecodeTuple: truncated metadata");
  }

  for (std::uint64_t i = 0; i < payload_count; ++i) {
    std::string_view key;
    if (!codec::GetLengthPrefixed(&data, &key) || data.empty()) {
      return Status::Corruption("DecodeTuple: truncated payload entry");
    }
    Value value;
    if (data.front() == kOpaqueKind) {
      data.remove_prefix(1);
      STRATA_RETURN_IF_ERROR(DecodeOpaque(&data, &value));
    } else {
      STRATA_RETURN_IF_ERROR(DecodeValue(&data, &value));
    }
    tuple.payload.Set(key, std::move(value));
  }
  if (!data.empty() && data.front() == kTraceMarker) {
    data.remove_prefix(1);
    if (!codec::GetFixed64(&data, &tuple.trace.trace_id) ||
        !codec::GetFixed64(&data, &tuple.trace.parent_span)) {
      return Status::Corruption("DecodeTuple: truncated trace context");
    }
  }
  if (!data.empty()) return Status::Corruption("DecodeTuple: trailing bytes");
  return tuple;
}

// ------------------------------------------------------------ join state

Status JoinState::EncodeTo(std::string* out) const {
  std::string record;
  for (const Buffer& buffer : buffers) {
    codec::PutVarint64(out, buffer.size());
    for (const auto& [key, tuple] : buffer) {
      codec::PutLengthPrefixed(out, key);
      record.clear();
      STRATA_RETURN_IF_ERROR(EncodeTuple(tuple, &record));
      codec::PutLengthPrefixed(out, record);
    }
  }
  codec::PutVarint64Signed(out, max_time[0]);
  codec::PutVarint64Signed(out, max_time[1]);
  return Status::Ok();
}

Result<JoinState> JoinState::Decode(std::string_view in) {
  JoinState state;
  for (Buffer& buffer : state.buffers) {
    std::uint64_t count = 0;
    if (!codec::GetVarint64(&in, &count)) {
      return Status::Corruption("join snapshot: truncated buffer count");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      std::string_view key;
      std::string_view record;
      if (!codec::GetLengthPrefixed(&in, &key) ||
          !codec::GetLengthPrefixed(&in, &record)) {
        return Status::Corruption("join snapshot: truncated entry");
      }
      auto tuple = DecodeTuple(record);
      if (!tuple.ok()) return tuple.status();
      buffer.emplace_back(std::string(key), std::move(tuple).value());
    }
  }
  if (!codec::GetVarint64Signed(&in, &state.max_time[0]) ||
      !codec::GetVarint64Signed(&in, &state.max_time[1])) {
    return Status::Corruption("join snapshot: truncated watermarks");
  }
  if (!in.empty()) return Status::Corruption("join snapshot: trailing bytes");
  return state;
}

// ---------------------------------------------------- aggregate snapshot

void AggregateSnapshot::EncodeTo(std::string* out) const {
  codec::PutVarint64Signed(out, closed_horizon);
  codec::PutVarint64(out, windows.size());
  for (const auto& [key, window] : windows) {
    codec::PutVarint64Signed(out, key.first);
    codec::PutLengthPrefixed(out, key.second);
    codec::PutVarint64Signed(out, window.max_stimulus);
    codec::PutVarint64Signed(out, window.max_event_time);
    codec::PutLengthPrefixed(out, window.acc);
  }
}

Result<AggregateSnapshot> AggregateSnapshot::Decode(std::string_view in) {
  AggregateSnapshot snapshot;
  std::uint64_t count = 0;
  if (!codec::GetVarint64Signed(&in, &snapshot.closed_horizon) ||
      !codec::GetVarint64(&in, &count)) {
    return Status::Corruption("aggregate snapshot: truncated header");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    Timestamp start = 0;
    std::string_view key;
    Window window;
    std::string_view acc;
    if (!codec::GetVarint64Signed(&in, &start) ||
        !codec::GetLengthPrefixed(&in, &key) ||
        !codec::GetVarint64Signed(&in, &window.max_stimulus) ||
        !codec::GetVarint64Signed(&in, &window.max_event_time) ||
        !codec::GetLengthPrefixed(&in, &acc)) {
      return Status::Corruption("aggregate snapshot: truncated window");
    }
    window.acc = std::string(acc);
    if (!snapshot.windows
             .emplace(std::make_pair(start, std::string(key)),
                      std::move(window))
             .second) {
      return Status::Corruption("aggregate snapshot: duplicate window");
    }
  }
  if (!in.empty()) {
    return Status::Corruption("aggregate snapshot: trailing bytes");
  }
  return snapshot;
}

}  // namespace strata::spe
