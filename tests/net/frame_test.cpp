#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/codec.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

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
  body.clear();
  EncodeFetchResponse(resp, &body);
  FetchResponse decoded_resp;
  ASSERT_TRUE(DecodeFetchResponse(body, &decoded_resp).ok());
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
  std::string produce_body;
  EncodeProduceRequest(produce, &produce_body);
  ProduceRequest produce_out;
  for (std::size_t cut = 1; cut <= produce_body.size(); ++cut) {
    EXPECT_TRUE(DecodeProduceRequest(
                    std::string_view(produce_body.data(),
                                     produce_body.size() - cut),
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
    std::string body;
    EncodeProduceRequest(req, &body);
    ProduceRequest decoded;
    decoded.acks = acks == ProduceAcks::kLeader ? ProduceAcks::kQuorum
                                                : ProduceAcks::kLeader;
    ASSERT_TRUE(DecodeProduceRequest(body, &decoded).ok());
    EXPECT_EQ(decoded.acks, acks);
    EXPECT_EQ(decoded.topic, "topic");
    EXPECT_EQ(decoded.record.key, "key");
    EXPECT_EQ(decoded.record.value, "value");
    EXPECT_EQ(decoded.record.timestamp, -3);
  }
}

}  // namespace
}  // namespace strata::net
