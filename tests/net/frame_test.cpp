#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/codec.hpp"
#include "common/crc32.hpp"
#include "fault/failpoint.hpp"
#include "net/protocol.hpp"
#include "net/remote.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace strata::net {
namespace {

constexpr auto kTestDeadline = std::chrono::seconds(5);

/// A connected loopback socket pair (client, server side).
struct SocketPair {
  Socket client;
  Socket server;
};

SocketPair MakePair() {
  auto listener = ListenSocket::Listen("127.0.0.1", 0);
  listener.status().OrDie();
  auto client = Socket::Connect("127.0.0.1", listener->port(),
                                After(kTestDeadline));
  client.status().OrDie();
  auto server = listener->Accept(After(kTestDeadline));
  server.status().OrDie();
  return SocketPair{std::move(*client), std::move(*server)};
}

TEST(Frame, RoundTripOverLoopback) {
  SocketPair pair = MakePair();
  std::string payload = "hello broker ? world";
  payload[13] = '\0';  // binary-safe: embedded NUL must survive framing
  ASSERT_TRUE(WriteFrame(&pair.client, payload, After(kTestDeadline)).ok());

  std::string received;
  ASSERT_TRUE(ReadFrame(&pair.server, &received, After(kTestDeadline)).ok());
  EXPECT_EQ(received, payload);
}

TEST(Frame, EmptyPayloadRoundTrips) {
  SocketPair pair = MakePair();
  ASSERT_TRUE(WriteFrame(&pair.client, "", After(kTestDeadline)).ok());
  std::string received = "sentinel";
  ASSERT_TRUE(ReadFrame(&pair.server, &received, After(kTestDeadline)).ok());
  EXPECT_TRUE(received.empty());
}

TEST(Frame, EveryPayloadBitFlipIsCorruption) {
  const std::string payload = "framed payload under test";
  std::string frame;
  EncodeFrame(payload, {}, 0, &frame);

  // Flip each bit of the payload section (after the fixed header) and
  // confirm the CRC catches it.
  for (std::size_t byte = kFrameHeaderBytes; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SocketPair pair = MakePair();
      std::string mutated = frame;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      ASSERT_TRUE(pair.client.WriteAll(mutated, After(kTestDeadline)).ok());
      std::string received;
      Status read = ReadFrame(&pair.server, &received, After(kTestDeadline));
      EXPECT_TRUE(read.IsCorruption())
          << "byte " << byte << " bit " << bit << ": " << read.ToString();
    }
  }
}

TEST(Frame, CorruptCrcHeaderIsCorruption) {
  std::string frame;
  EncodeFrame("payload", {}, 0, &frame);
  frame[4] = static_cast<char>(frame[4] ^ 0x40);  // inside the masked CRC

  SocketPair pair = MakePair();
  ASSERT_TRUE(pair.client.WriteAll(frame, After(kTestDeadline)).ok());
  std::string received;
  EXPECT_TRUE(
      ReadFrame(&pair.server, &received, After(kTestDeadline)).IsCorruption());
}

TEST(Frame, ImplausibleLengthRejectedBeforeAllocation) {
  std::string frame;
  codec::PutFixed32(&frame, kMaxFrameBytes + 1);
  frame.resize(kFrameHeaderBytes, '\0');  // CRC, trace, correlation

  SocketPair pair = MakePair();
  ASSERT_TRUE(pair.client.WriteAll(frame, After(kTestDeadline)).ok());
  std::string received;
  EXPECT_TRUE(
      ReadFrame(&pair.server, &received, After(kTestDeadline)).IsCorruption());
}

TEST(Frame, PeerCloseSurfacesAsUnavailable) {
  SocketPair pair = MakePair();
  pair.client.Close();
  std::string received;
  Status read = ReadFrame(&pair.server, &received, After(kTestDeadline));
  EXPECT_EQ(read.code(), StatusCode::kUnavailable) << read.ToString();
}

TEST(Frame, TruncatedFrameThenCloseSurfacesAsUnavailable) {
  std::string frame;
  EncodeFrame("payload that will be cut short", {}, 0, &frame);
  SocketPair pair = MakePair();
  ASSERT_TRUE(pair.client
                  .WriteAll(std::string_view(frame).substr(0, frame.size() / 2),
                            After(kTestDeadline))
                  .ok());
  pair.client.Close();
  std::string received;
  Status read = ReadFrame(&pair.server, &received, After(kTestDeadline));
  EXPECT_EQ(read.code(), StatusCode::kUnavailable) << read.ToString();
}

TEST(Frame, ReadTimesOutWhenNothingArrives) {
  SocketPair pair = MakePair();
  std::string received;
  Status read = ReadFrame(&pair.server, &received,
                          After(std::chrono::milliseconds(50)));
  EXPECT_TRUE(read.IsTimeout()) << read.ToString();
}

TEST(Frame, ShutdownUnblocksPendingRead) {
  SocketPair pair = MakePair();
  std::thread unblocker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pair.server.Shutdown();
  });
  std::string received;
  Status read = ReadFrame(&pair.server, &received, kNoDeadline);
  unblocker.join();
  EXPECT_FALSE(read.ok());
}

// --- trace context -----------------------------------------------------------

TEST(Frame, TracedFrameRoundTripsContext) {
  SocketPair pair = MakePair();
  TraceContext trace;
  trace.trace_id = 0x1122334455667788ull;
  trace.parent_span = 0x99aabbccddeeff00ull;
  const std::uint64_t correlation = 0x0102030405060708ull;
  ASSERT_TRUE(WriteFrame(&pair.client, "traced payload", After(kTestDeadline),
                         trace, correlation)
                  .ok());

  std::string received;
  TraceContext decoded;
  decoded.trace_id = 1;  // must be overwritten, not merely left alone
  std::uint64_t decoded_correlation = 0;
  ASSERT_TRUE(ReadFrame(&pair.server, &received, After(kTestDeadline),
                        &decoded, &decoded_correlation)
                  .ok());
  EXPECT_EQ(received, "traced payload");
  EXPECT_EQ(decoded.trace_id, trace.trace_id);
  EXPECT_EQ(decoded.parent_span, trace.parent_span);
  EXPECT_EQ(decoded_correlation, correlation);
}

TEST(Frame, TracedFrameReadableWithoutTraceSink) {
  // A reader that does not care about traces still gets the payload: the
  // trace fields are consumed and the chained CRC still verifies.
  SocketPair pair = MakePair();
  TraceContext trace;
  trace.trace_id = 42;
  ASSERT_TRUE(
      WriteFrame(&pair.client, "payload", After(kTestDeadline), trace).ok());
  std::string received;
  ASSERT_TRUE(ReadFrame(&pair.server, &received, After(kTestDeadline)).ok());
  EXPECT_EQ(received, "payload");
}

TEST(Frame, UntracedFrameZeroesTraceSink) {
  SocketPair pair = MakePair();
  ASSERT_TRUE(WriteFrame(&pair.client, "plain", After(kTestDeadline)).ok());
  std::string received;
  TraceContext decoded;
  decoded.trace_id = 7;  // stale state from a previous traced frame
  ASSERT_TRUE(
      ReadFrame(&pair.server, &received, After(kTestDeadline), &decoded).ok());
  EXPECT_EQ(decoded.trace_id, 0u);
  EXPECT_FALSE(decoded.sampled());
}

TEST(Frame, UnsampledContextFallsBackToPlainFrame) {
  // An unsampled context travels as zeros in the fixed header: the frame is
  // byte-identical to one encoded with a default context.
  TraceContext unsampled;
  unsampled.parent_span = 99;  // meaningless without a trace id
  std::string traced_encode;
  EncodeFrame("body", unsampled, 5, &traced_encode);
  std::string plain_encode;
  EncodeFrame("body", {}, 5, &plain_encode);
  EXPECT_EQ(traced_encode, plain_encode);
  ASSERT_EQ(plain_encode.size(), kFrameHeaderBytes + 4);
  EXPECT_EQ(plain_encode.substr(8, 16), std::string(16, '\0'));
}

TEST(Frame, EveryTraceBlockBitFlipIsCorruption) {
  TraceContext trace;
  trace.trace_id = 0xdeadbeef;
  trace.parent_span = 0xfeedface;
  std::string frame;
  EncodeFrame("guarded by chained crc", trace, 0x5eed, &frame);

  // The 16-byte trace and 8-byte correlation fields sit between the length
  // and CRC words and the payload; their bits are covered by the frame CRC
  // just like payload bits.
  for (std::size_t byte = 8; byte < kFrameHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SocketPair pair = MakePair();
      std::string mutated = frame;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      ASSERT_TRUE(pair.client.WriteAll(mutated, After(kTestDeadline)).ok());
      std::string received;
      TraceContext decoded;
      Status read =
          ReadFrame(&pair.server, &received, After(kTestDeadline), &decoded);
      EXPECT_TRUE(read.IsCorruption())
          << "byte " << byte << " bit " << bit << ": " << read.ToString();
    }
  }
}

// --- protocol envelope + body codecs ----------------------------------------

TEST(Protocol, RequestEnvelopeRoundTrip) {
  std::string payload;
  EncodeRequest(ApiKey::kProduce, "body-bytes", &payload);
  ApiKey api{};
  std::string_view body;
  ASSERT_TRUE(DecodeRequest(payload, &api, &body).ok());
  EXPECT_EQ(api, ApiKey::kProduce);
  EXPECT_EQ(body, "body-bytes");
}

TEST(Protocol, UnknownApiKeyRejected) {
  std::string payload = "\x7fgarbage";
  ApiKey api{};
  std::string_view body;
  EXPECT_TRUE(DecodeRequest(payload, &api, &body).IsCorruption());
  EXPECT_TRUE(DecodeRequest("", &api, &body).IsCorruption());
}

TEST(Protocol, ResponseCarriesApplicationError) {
  std::string payload;
  EncodeResponse(Status::NotFound("no such topic"), "", &payload);
  std::string_view body;
  Status decoded = DecodeResponse(payload, &body);
  EXPECT_TRUE(decoded.IsNotFound());
  EXPECT_EQ(decoded.message(), "no such topic");
}

TEST(Protocol, FetchRoundTrip) {
  FetchRequest req;
  req.entries.push_back({{"topic-a", 2}, 17, 128});
  req.entries.push_back({{"topic-b", 0}, 0, 64});
  req.max_wait_us = 250'000;
  std::string body;
  EncodeFetchRequest(req, &body);
  FetchRequest decoded;
  ASSERT_TRUE(DecodeFetchRequest(body, &decoded).ok());
  ASSERT_EQ(decoded.entries.size(), 2u);
  EXPECT_EQ(decoded.entries[0].tp, (ps::TopicPartition{"topic-a", 2}));
  EXPECT_EQ(decoded.entries[0].offset, 17);
  EXPECT_EQ(decoded.entries[1].max_records, 64u);
  EXPECT_EQ(decoded.max_wait_us, 250'000u);

  FetchResponse resp;
  FetchResponse::Entry entry;
  entry.tp = {"topic-a", 2};
  entry.next_offset = 19;
  ps::ConsumedRecord record;
  record.topic = "topic-a";
  record.partition = 2;
  record.offset = 17;
  record.key = "k";
  record.value = "v";
  record.timestamp = -5;  // signed timestamps survive
  entry.records.push_back(record);
  resp.entries.push_back(entry);
  Pieces response_body;
  EncodeFetchResponse(resp, &response_body);
  FetchResponse decoded_resp;
  ASSERT_TRUE(
      DecodeFetchResponse(response_body.Flatten(), &decoded_resp).ok());
  ASSERT_EQ(decoded_resp.entries.size(), 1u);
  EXPECT_EQ(decoded_resp.entries[0].records[0].timestamp, -5);
  EXPECT_EQ(decoded_resp.entries[0].records[0].value, "v");
  EXPECT_FALSE(decoded_resp.empty());
}

TEST(Protocol, HelloRoundTripAndVersionFloor) {
  std::string body;
  EncodeHelloRequest(HelloRequest{kProtocolVersion}, &body);
  HelloRequest req;
  ASSERT_TRUE(DecodeHelloRequest(body, &req).ok());
  EXPECT_EQ(req.version, kProtocolVersion);

  body.clear();
  EncodeHelloResponse(HelloResponse{2}, &body);
  HelloResponse resp;
  ASSERT_TRUE(DecodeHelloResponse(body, &resp).ok());
  EXPECT_EQ(resp.version, 2u);

  // Version 0 does not exist on any wire; reject rather than misbehave.
  body.clear();
  EncodeHelloRequest(HelloRequest{0}, &body);
  EXPECT_FALSE(DecodeHelloRequest(body, &req).ok());
}

TEST(Protocol, TruncatedBodiesAlwaysError) {
  CommitOffsetRequest req;
  req.group = "g";
  req.offsets.emplace_back(ps::TopicPartition{"t", 1}, 42);
  std::string body;
  EncodeCommitOffsetRequest(req, &body);
  for (std::size_t cut = 1; cut <= body.size(); ++cut) {
    CommitOffsetRequest out;
    EXPECT_FALSE(DecodeCommitOffsetRequest(
                     std::string_view(body.data(), body.size() - cut), &out)
                     .ok())
        << "cut=" << cut;
  }
  CommitOffsetRequest out;
  EXPECT_FALSE(DecodeCommitOffsetRequest(body + "x", &out).ok());

  // Produce: every cut — the missing acks byte included — is Corruption,
  // and so is an acks value past kQuorum or a trailing byte.
  ProduceRequest produce;
  produce.topic = "t";
  produce.record = ps::Record{"k", "v", 7};
  produce.acks = ProduceAcks::kQuorum;
  Pieces produce_pieces;
  EncodeProduceRequest(produce, &produce_pieces);
  const std::string produce_body = produce_pieces.Flatten();
  ProduceRequest produce_out;
  for (std::size_t cut = 1; cut <= produce_body.size(); ++cut) {
    EXPECT_TRUE(DecodeProduceRequest(
                    ps::Bytes::Copy(std::string_view(
                        produce_body.data(), produce_body.size() - cut)),
                    &produce_out)
                    .IsCorruption())
        << "cut=" << cut;
  }
  std::string bad_acks = produce_body;
  bad_acks.back() = static_cast<char>(
      static_cast<std::uint8_t>(ProduceAcks::kQuorum) + 1);
  EXPECT_TRUE(DecodeProduceRequest(bad_acks, &produce_out).IsCorruption());
  EXPECT_TRUE(
      DecodeProduceRequest(produce_body + "x", &produce_out).IsCorruption());
}

TEST(Protocol, ProduceAcksRoundTrip) {
  for (ProduceAcks acks : {ProduceAcks::kLeader, ProduceAcks::kQuorum}) {
    ProduceRequest req;
    req.topic = "topic";
    req.record = ps::Record{"key", "value", -3};
    req.acks = acks;
    Pieces body;
    EncodeProduceRequest(req, &body);
    ProduceRequest decoded;
    decoded.acks = acks == ProduceAcks::kLeader ? ProduceAcks::kQuorum
                                                : ProduceAcks::kLeader;
    ASSERT_TRUE(DecodeProduceRequest(body.Flatten(), &decoded).ok());
    EXPECT_EQ(decoded.acks, acks);
    EXPECT_EQ(decoded.topic, "topic");
    EXPECT_EQ(decoded.record.key, "key");
    EXPECT_EQ(decoded.record.value, "value");
    EXPECT_EQ(decoded.record.timestamp, -3);
  }
}

// --- wire golden: the bytes every frame carries ------------------------------
//
// These tests build the expected frames from the codec primitives alone (no
// frame or protocol encoder), so they pin the wire format itself: however a
// sender assembles a frame, the bytes on the socket must be these.

/// The frame of `payload` as one concatenated string.
std::string ConcatenatedFrame(std::string_view payload,
                              const TraceContext& trace,
                              std::uint64_t correlation) {
  std::string fields;
  codec::PutFixed64(&fields, trace.trace_id);
  codec::PutFixed64(&fields, trace.parent_span);
  codec::PutFixed64(&fields, correlation);
  std::string frame;
  codec::PutFixed32(&frame, static_cast<std::uint32_t>(payload.size()));
  codec::PutFixed32(&frame, MaskCrc(Crc32c(payload, Crc32c(fields))));
  frame.append(fields);
  frame.append(payload);
  return frame;
}

/// One whole frame's raw bytes, header included, without any check.
std::string ReadRawFrame(Socket* socket) {
  std::string frame(kFrameHeaderBytes, '\0');
  socket->ReadFully(frame.data(), kFrameHeaderBytes, After(kTestDeadline))
      .OrDie();
  std::string_view header(frame);
  std::uint32_t length = 0;
  codec::GetFixed32(&header, &length);
  frame.resize(kFrameHeaderBytes + length);
  socket->ReadFully(frame.data() + kFrameHeaderBytes, length,
                    After(kTestDeadline))
      .OrDie();
  return frame;
}

/// `n` bytes that take every byte value and do not repeat with a short
/// period, so a misplaced or duplicated slice cannot compare equal.
std::string PatternValue(std::size_t n, std::uint32_t seed) {
  std::string value(n, '\0');
  std::uint32_t x = seed * 2654435761u + 1;
  for (char& c : value) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    c = static_cast<char>(x);
  }
  return value;
}

/// The frame of one Produce request with an empty key: the 32-byte header,
/// the request head (api key, topic, key, value length), the value, and
/// the tail (timestamp, acks).
std::string ProduceFrame(std::string_view topic, std::string_view value,
                         Timestamp timestamp, std::uint64_t correlation) {
  std::string payload(1, static_cast<char>(ApiKey::kProduce));
  codec::PutLengthPrefixed(&payload, topic);
  codec::PutLengthPrefixed(&payload, "");
  codec::PutLengthPrefixed(&payload, value);
  codec::PutVarint64Signed(&payload, timestamp);
  payload.push_back(static_cast<char>(ProduceAcks::kLeader));
  return ConcatenatedFrame(payload, {}, correlation);
}

constexpr TraceContext kGoldenTrace{0x0123456789abcdefull,
                                    0x0fedcba987654321ull};

TEST(WireGolden, ProduceRequestFrameIsTheConcatenatedEncoding) {
  const std::string value = PatternValue(300'000, 7);
  for (const bool traced : {false, true}) {
    auto listener = ListenSocket::Listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    RemoteOptions options;
    options.port = listener->port();
    options.max_retries = 0;
    RemoteProducer producer(options);
    if (traced) obs::Tracer::Instance().Configure(1);
    Status sent = Status::Ok();
    std::pair<int, std::int64_t> placed{-1, -1};
    std::thread client([&] {
      if (traced) ThreadTraceSlot() = kGoldenTrace;
      auto result = producer.Send("golden", "key-1", value, -42);
      ThreadTraceSlot() = TraceContext{};
      sent = result.status();
      if (result.ok()) placed = *result;
    });

    auto server = listener->Accept(After(kTestDeadline));
    ASSERT_TRUE(server.ok());
    std::string hello;
    ASSERT_TRUE(ReadFrame(&*server, &hello, After(kTestDeadline)).ok());
    std::string hello_body;
    EncodeHelloResponse(HelloResponse{}, &hello_body);
    std::string answer;
    EncodeResponse(Status::Ok(), hello_body, &answer);
    ASSERT_TRUE(WriteFrame(&*server, answer, After(kTestDeadline)).ok());

    std::string payload(1, static_cast<char>(ApiKey::kProduce));
    codec::PutLengthPrefixed(&payload, "golden");
    codec::PutLengthPrefixed(&payload, "key-1");
    codec::PutLengthPrefixed(&payload, value);
    codec::PutVarint64Signed(&payload, -42);
    payload.push_back(static_cast<char>(ProduceAcks::kLeader));
    const std::string frame = ReadRawFrame(&*server);
    const std::string expected =
        ConcatenatedFrame(payload, traced ? kGoldenTrace : TraceContext{}, 1);
    EXPECT_EQ(frame.size(), expected.size());
    EXPECT_TRUE(frame == expected) << "traced=" << traced;

    std::string produced;
    EncodeProduceResponse(ProduceResponse{0, 5}, &produced);
    answer.clear();
    EncodeResponse(Status::Ok(), produced, &answer);
    ASSERT_TRUE(WriteFrame(&*server, answer, After(kTestDeadline), {}, 1).ok());
    client.join();
    obs::Tracer::Instance().Configure(0);
    EXPECT_TRUE(sent.ok()) << sent.ToString();
    EXPECT_EQ(placed, (std::pair<int, std::int64_t>{0, 5}));
  }
}

/// A two-partition topic with two records in each; partition 1 leads with
/// a value larger than one socket read.
struct GoldenTopic {
  struct Entry {
    std::string key;
    std::string value;
    Timestamp timestamp;
  };
  std::vector<std::vector<Entry>> partitions = {
      {{"", "small-0", 11}, {"k", PatternValue(5'000, 1), -3}},
      {{"big", PatternValue(700'000, 2), 1'700'000'000'000},
       {"key-longer-than-sso", std::string("\0\xff\0", 3), 0}},
  };

  void Fill(ps::Broker* broker) const {
    ASSERT_TRUE(broker->CreateTopic("golden", ps::TopicConfig{2}).ok());
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      auto log = broker->GetLog("golden", static_cast<int>(p));
      ASSERT_TRUE(log.ok());
      for (const Entry& entry : partitions[p]) {
        ps::Record record;
        record.key = entry.key;
        record.value = entry.value;
        record.timestamp = entry.timestamp;
        ASSERT_TRUE((*log)->Append(record).ok());
      }
    }
  }

  /// Fetch request payload for both partitions from offset 0.
  [[nodiscard]] std::string FetchRequestPayload() const {
    std::string payload(1, static_cast<char>(ApiKey::kFetch));
    codec::PutVarint32(&payload, 2);
    for (std::uint32_t p = 0; p < 2; ++p) {
      codec::PutLengthPrefixed(&payload, "golden");
      codec::PutVarint32(&payload, p);
      codec::PutVarint64Signed(&payload, 0);
      codec::PutVarint64(&payload, 16);
    }
    codec::PutVarint64(&payload, 0);  // max_wait_us: answer at once
    return payload;
  }

  /// The Ok response payload carrying every record.
  [[nodiscard]] std::string FetchResponsePayload() const {
    std::string payload(1, static_cast<char>(StatusCode::kOk));
    codec::PutLengthPrefixed(&payload, "");
    codec::PutVarint32(&payload, 2);
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      codec::PutLengthPrefixed(&payload, "golden");
      codec::PutVarint32(&payload, static_cast<std::uint32_t>(p));
      codec::PutVarint64Signed(&payload, 2);  // next offset
      codec::PutVarint32(&payload, 2);
      std::int64_t offset = 0;
      for (const Entry& entry : partitions[p]) {
        codec::PutVarint64Signed(&payload, offset++);
        codec::PutLengthPrefixed(&payload, entry.key);
        codec::PutLengthPrefixed(&payload, entry.value);
        codec::PutVarint64Signed(&payload, entry.timestamp);
      }
    }
    return payload;
  }
};

TEST(WireGolden, FetchResponseFrameIsTheConcatenatedEncoding) {
  const GoldenTopic topic;
  ps::Broker broker;
  topic.Fill(&broker);
  BrokerServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  const std::string expected_payload = topic.FetchResponsePayload();
  for (const bool traced : {false, true}) {
    auto socket = Socket::Connect("127.0.0.1", server.port(),
                                  After(kTestDeadline));
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(Handshake(&*socket, After(kTestDeadline)).ok());
    const TraceContext trace = traced ? kGoldenTrace : TraceContext{};
    // Twice on one connection: the second answer must not carry leftovers
    // of the first.
    for (std::uint64_t correlation : {9u, 10u}) {
      ASSERT_TRUE(WriteFrame(&*socket, topic.FetchRequestPayload(),
                             After(kTestDeadline), trace, correlation)
                      .ok());
      const std::string frame = ReadRawFrame(&*socket);
      const std::string expected =
          ConcatenatedFrame(expected_payload, trace, correlation);
      EXPECT_EQ(frame.size(), expected.size());
      EXPECT_TRUE(frame == expected)
          << "traced=" << traced << " correlation=" << correlation;
    }
  }
  server.Stop();
}

TEST(WireGolden, BitFlipInAnyFetchResponsePieceIsCorruption) {
  const GoldenTopic topic;
  const std::string frame =
      ConcatenatedFrame(topic.FetchResponsePayload(), kGoldenTrace, 3);
  const std::size_t first_value = frame.find(topic.partitions[0][1].value);
  const std::size_t second_value = frame.find(topic.partitions[1][0].value);
  ASSERT_NE(first_value, std::string::npos);
  ASSERT_NE(second_value, std::string::npos);
  const std::pair<const char*, std::size_t> flips[] = {
      {"header crc", 5},
      {"header trace", 12},
      {"header correlation", 27},
      {"response head", kFrameHeaderBytes + 4},
      {"first value", first_value + 2'500},
      {"second value", second_value + 350'000},
  };
  for (const auto& [piece, byte] : flips) {
    std::string mutated = frame;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x10);
    SocketPair pair = MakePair();
    std::thread writer([&] {
      ASSERT_TRUE(pair.client.WriteAll(mutated, After(kTestDeadline)).ok());
    });
    std::string received;
    const Status read =
        ReadFrame(&pair.server, &received, After(kTestDeadline));
    writer.join();
    EXPECT_TRUE(read.IsCorruption()) << piece << ": " << read.ToString();
  }
}

TEST(WireGolden, BitFlipInAnyProducePieceDropsTheConnection) {
  ps::Broker broker;
  ASSERT_TRUE(broker.CreateTopic("golden", ps::TopicConfig{1}).ok());
  BrokerServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  const std::string value = PatternValue(400'000, 5);
  const std::string frame = ProduceFrame("golden", value, 1, 1);
  const std::size_t value_at = frame.find(value);
  ASSERT_NE(value_at, std::string::npos);
  const std::pair<const char*, std::size_t> flips[] = {
      {"header crc", 6},
      {"request head", kFrameHeaderBytes + 3},
      {"value start", value_at + 10},
      {"value end", value_at + value.size() - 10},
      {"request tail", frame.size() - 1},
  };
  for (const auto& [piece, byte] : flips) {
    std::string mutated = frame;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x01);
    auto socket = Socket::Connect("127.0.0.1", server.port(),
                                  After(kTestDeadline));
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(Handshake(&*socket, After(kTestDeadline)).ok());
    std::thread writer([&] {
      // The server may sever before it has read everything; a reset on the
      // tail of the write is expected.
      (void)socket->WriteAll(mutated, After(kTestDeadline));
    });
    std::string answer;
    const Status read = ReadFrame(&*socket, &answer, After(kTestDeadline));
    writer.join();
    // Dropped without an answer: the corrupt frame is never applied.
    EXPECT_FALSE(read.ok()) << piece;
    EXPECT_FALSE(read.IsTimeout()) << piece << ": " << read.ToString();
  }
  auto log = broker.GetLog("golden", 0);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->EndOffset(), 0);
  server.Stop();
}

/// Cut points for a torn send of a 200 KB produce frame: inside the head,
/// one byte past it, and deep inside the value.
constexpr std::size_t kTornCuts[] = {kFrameHeaderBytes + 4,
                                     kFrameHeaderBytes + 9,
                                     kFrameHeaderBytes + 50'000};

TEST(WireGolden, TornSendPushesExactlyTheFirstNBytes) {
  const std::string value = PatternValue(200'000, 9);
  const std::string frame = ProduceFrame("torn", value, 2, 2);
  for (const std::size_t cut : kTornCuts) {
    auto listener = ListenSocket::Listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    RemoteOptions options;
    options.port = listener->port();
    options.max_retries = 0;
    options.cluster_refresh_rounds = 1;
    RemoteProducer producer(options);
    Status warm_up = Status::Ok();
    Status torn = Status::Ok();
    std::thread client([&] {
      warm_up = producer.Send("torn", "", "warm-up", 1).status();
      fault::Activate("net.send",
                      fault::Action{fault::ActionKind::kTornWrite,
                                    static_cast<std::int64_t>(cut), 1.0, 1});
      torn = producer.Send("torn", "", value, 2).status();
      fault::DeactivateAll();
    });
    auto server = listener->Accept(After(kTestDeadline));
    ASSERT_TRUE(server.ok());
    listener->Close();  // the client's re-route probe is refused at once
    std::string request;
    ASSERT_TRUE(ReadFrame(&*server, &request, After(kTestDeadline)).ok());
    std::string body;
    EncodeHelloResponse(HelloResponse{}, &body);
    std::string answer;
    EncodeResponse(Status::Ok(), body, &answer);
    ASSERT_TRUE(WriteFrame(&*server, answer, After(kTestDeadline)).ok());
    ASSERT_TRUE(ReadFrame(&*server, &request, After(kTestDeadline)).ok());
    body.clear();
    EncodeProduceResponse(ProduceResponse{0, 0}, &body);
    answer.clear();
    EncodeResponse(Status::Ok(), body, &answer);
    ASSERT_TRUE(WriteFrame(&*server, answer, After(kTestDeadline), {}, 1).ok());

    // Everything the torn send pushed, up to the client's close.
    std::string received;
    char byte = 0;
    while (received.size() <= frame.size() &&
           server->ReadFully(&byte, 1, After(kTestDeadline)).ok()) {
      received.push_back(byte);
    }
    client.join();
    EXPECT_TRUE(warm_up.ok()) << warm_up.ToString();
    EXPECT_FALSE(torn.ok()) << "cut " << cut;
    EXPECT_EQ(received.size(), cut);
    EXPECT_TRUE(received == frame.substr(0, cut)) << "cut " << cut;
  }
}

TEST(WireGolden, TornSendInsideAFrameDropsTheConnection) {
  ps::Broker broker;
  ASSERT_TRUE(broker.CreateTopic("torn", ps::TopicConfig{1}).ok());
  obs::MetricsRegistry registry;
  BrokerServerOptions server_options;
  server_options.metrics = &registry;
  BrokerServer server(&broker, server_options);
  ASSERT_TRUE(server.Start().ok());
  obs::Gauge* connections = registry.GetGauge("net.server.connections");
  auto log = broker.GetLog("torn", 0);
  ASSERT_TRUE(log.ok());

  RemoteOptions options;
  options.port = server.port();
  options.max_retries = 0;
  options.cluster_refresh_rounds = 1;
  const std::string value = PatternValue(200'000, 9);
  std::int64_t expected_end = 0;
  for (const std::size_t cut : kTornCuts) {
    {
      RemoteProducer producer(options);
      ASSERT_TRUE(producer.Send("torn", "", "warm-up", 1).ok());  // connected
      ++expected_end;
      fault::Activate("net.send",
                      fault::Action{fault::ActionKind::kTornWrite,
                                    static_cast<std::int64_t>(cut), 1.0, 1});
      auto torn = producer.Send("torn", "", value, 2);
      fault::DeactivateAll();
      EXPECT_FALSE(torn.ok()) << "cut " << cut;
    }
    // The server saw a partial frame, then the client's close: it drops the
    // connection and applies nothing.
    const auto deadline = After(kTestDeadline);
    while (connections->value() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(connections->value(), 0) << "cut " << cut;
    EXPECT_EQ((*log)->EndOffset(), expected_end) << "cut " << cut;
  }
  RemoteProducer producer(options);
  auto after = producer.Send("torn", "", value, 3);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->second, expected_end);
  server.Stop();
}

}  // namespace
}  // namespace strata::net
