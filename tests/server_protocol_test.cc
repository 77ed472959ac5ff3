// Serve wire-protocol edge cases, socket-free: frame round trips, pathological
// split points, truncated frames, oversized length prefixes, and malformed
// request payloads (src/server/protocol.h, src/server/request.h).

#include "src/server/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/server/request.h"
#include "src/support/json_reader.h"

namespace vc {
namespace {

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(FrameCodec, RoundTripsOnePayload) {
  std::string frame = EncodeFrame("{\"id\":\"x\"}");
  ASSERT_EQ(frame.size(), 4u + 10u);
  // Big-endian length prefix.
  EXPECT_EQ(static_cast<unsigned char>(frame[0]), 0u);
  EXPECT_EQ(static_cast<unsigned char>(frame[3]), 10u);

  FrameDecoder decoder;
  decoder.Feed(frame);
  std::string payload;
  ASSERT_TRUE(decoder.Pop(&payload));
  EXPECT_EQ(payload, "{\"id\":\"x\"}");
  EXPECT_FALSE(decoder.Pop(&payload));
  EXPECT_FALSE(decoder.mid_frame());
  EXPECT_FALSE(decoder.error());
}

TEST(FrameCodec, EmptyPayloadIsAValidFrame) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(""));
  std::string payload = "sentinel";
  ASSERT_TRUE(decoder.Pop(&payload));
  EXPECT_EQ(payload, "");
}

TEST(FrameCodec, ByteAtATimeFeedYieldsTheSamePayloads) {
  std::string stream = EncodeFrame("first") + EncodeFrame("second payload");
  FrameDecoder decoder;
  for (char byte : stream) {
    decoder.Feed(&byte, 1);
  }
  std::string payload;
  ASSERT_TRUE(decoder.Pop(&payload));
  EXPECT_EQ(payload, "first");
  ASSERT_TRUE(decoder.Pop(&payload));
  EXPECT_EQ(payload, "second payload");
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FrameCodec, EverySplitPointOfTwoFramesDecodesIdentically) {
  const std::string stream = EncodeFrame("alpha") + EncodeFrame("beta");
  for (size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder decoder;
    decoder.Feed(stream.data(), split);
    decoder.Feed(stream.data() + split, stream.size() - split);
    std::string a;
    std::string b;
    ASSERT_TRUE(decoder.Pop(&a)) << "split at " << split;
    ASSERT_TRUE(decoder.Pop(&b)) << "split at " << split;
    EXPECT_EQ(a, "alpha");
    EXPECT_EQ(b, "beta");
    EXPECT_FALSE(decoder.error());
  }
}

TEST(FrameCodec, MultipleFramesInOneFeedAllPop) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame("a") + EncodeFrame("bb") + EncodeFrame("ccc"));
  std::string payload;
  std::vector<std::string> popped;
  while (decoder.Pop(&payload)) {
    popped.push_back(payload);
  }
  EXPECT_EQ(popped, (std::vector<std::string>{"a", "bb", "ccc"}));
}

TEST(FrameCodec, TruncatedFrameStaysMidFrame) {
  std::string frame = EncodeFrame("truncated payload");
  FrameDecoder decoder;
  // Everything but the last byte: the decoder must hold, not emit.
  decoder.Feed(frame.data(), frame.size() - 1);
  std::string payload;
  EXPECT_FALSE(decoder.Pop(&payload));
  EXPECT_TRUE(decoder.mid_frame());
  EXPECT_FALSE(decoder.error());
  // The missing byte completes it.
  decoder.Feed(frame.data() + frame.size() - 1, 1);
  ASSERT_TRUE(decoder.Pop(&payload));
  EXPECT_EQ(payload, "truncated payload");
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FrameCodec, PartialPrefixAloneIsMidFrame) {
  FrameDecoder decoder;
  const char two_bytes[] = {0, 0};
  decoder.Feed(two_bytes, 2);
  EXPECT_TRUE(decoder.mid_frame());
  EXPECT_EQ(decoder.pending_bytes(), 2u);
  std::string payload;
  EXPECT_FALSE(decoder.Pop(&payload));
}

TEST(FrameCodec, OversizedLengthPrefixIsAStickyError) {
  // 0xFFFFFFFF-length prefix: refuse before buffering the alleged 4 GiB.
  const unsigned char prefix[] = {0xFF, 0xFF, 0xFF, 0xFF};
  FrameDecoder decoder;
  decoder.Feed(reinterpret_cast<const char*>(prefix), 4);
  EXPECT_TRUE(decoder.error());
  EXPECT_FALSE(decoder.error_message().empty());
  // The stream cannot be resynchronized: further feeds are no-ops.
  decoder.Feed(EncodeFrame("valid"));
  std::string payload;
  EXPECT_FALSE(decoder.Pop(&payload));
  EXPECT_TRUE(decoder.error());
}

TEST(FrameCodec, PrefixJustOverTheCeilingIsRejected) {
  uint32_t over = kMaxFramePayload + 1;
  const unsigned char prefix[] = {
      static_cast<unsigned char>(over >> 24), static_cast<unsigned char>(over >> 16),
      static_cast<unsigned char>(over >> 8), static_cast<unsigned char>(over)};
  FrameDecoder decoder;
  decoder.Feed(reinterpret_cast<const char*>(prefix), 4);
  EXPECT_TRUE(decoder.error());
}

TEST(FrameCodec, FrameAtTheCeilingIsAccepted) {
  // Exactly kMaxFramePayload must decode — the limit is inclusive.
  std::string payload(kMaxFramePayload, 'x');
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(payload));
  std::string out;
  ASSERT_TRUE(decoder.Pop(&out));
  EXPECT_EQ(out.size(), kMaxFramePayload);
  EXPECT_FALSE(decoder.error());
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

TEST(ServeRequestParse, AnalyzeRequestParsesEveryField) {
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseServeRequest(
      R"({"id":"c1-t2","method":"analyze","project":"w0",)"
      R"("sources":[{"path":"w0/a.c","content":"int f() { return 0; }"}],)"
      R"("jobs":4,"checkers":["unused-def"],"fault_inject":"42:0.1",)"
      R"("deadline_ms":250,"render":"json","debug_sleep_ms":5})",
      &request, &error))
      << error;
  EXPECT_EQ(request.id, "c1-t2");
  EXPECT_EQ(request.method, ServeMethod::kAnalyze);
  EXPECT_EQ(request.project, "w0");
  ASSERT_EQ(request.sources.size(), 1u);
  EXPECT_EQ(request.sources[0].first, "w0/a.c");
  EXPECT_EQ(request.jobs, 4);
  ASSERT_EQ(request.checkers.size(), 1u);
  EXPECT_EQ(request.checkers[0], "unused-def");
  EXPECT_EQ(request.fault_spec, "42:0.1");
  EXPECT_DOUBLE_EQ(request.deadline_ms, 250.0);
  EXPECT_EQ(request.render, "json");
  EXPECT_EQ(request.debug_sleep_ms, 5);
}

TEST(ServeRequestParse, InvalidJsonFailsButKeepsNothing) {
  ServeRequest request;
  std::string error;
  EXPECT_FALSE(ParseServeRequest("{\"id\":\"x\",", &request, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseServeRequest("not json at all", &request, &error));
  EXPECT_FALSE(ParseServeRequest("[1,2,3]", &request, &error));
  EXPECT_FALSE(ParseServeRequest("", &request, &error));
}

TEST(ServeRequestParse, UnknownMethodFailsButRecoversId) {
  ServeRequest request;
  std::string error;
  EXPECT_FALSE(ParseServeRequest(R"({"id":"e7","method":"explode"})", &request, &error));
  EXPECT_EQ(request.id, "e7") << "the error response must echo the id";
  EXPECT_NE(error.find("explode"), std::string::npos);
}

TEST(ServeRequestParse, AnalyzeWithoutSourcesFails) {
  ServeRequest request;
  std::string error;
  EXPECT_FALSE(ParseServeRequest(R"({"id":"a","method":"analyze","project":"p"})",
                                 &request, &error));
}

TEST(ServeRequestParse, AnalyzeWithRepeatedSourcePathFails) {
  // A snapshot holds one content per path: the second copy must not be
  // silently dropped, since no batch run could read both.
  ServeRequest request;
  std::string error;
  EXPECT_FALSE(ParseServeRequest(
      R"({"id":"a","method":"analyze","project":"p","sources":[)"
      R"({"path":"a.c","content":"int f(void) { return 1; }"},)"
      R"({"path":"b.c","content":""},)"
      R"({"path":"a.c","content":"int f(void) { return 2; }"}]})",
      &request, &error));
  EXPECT_NE(error.find("a.c"), std::string::npos) << error;
  EXPECT_TRUE(ParseServeRequest(
      R"({"id":"a","method":"analyze","project":"p","sources":[)"
      R"({"path":"a.c","content":""},{"path":"b.c","content":""}]})",
      &request, &error))
      << error;
}

TEST(ServeRequestParse, ProjectRequiredExceptPingAndShutdown) {
  ServeRequest request;
  std::string error;
  EXPECT_FALSE(ParseServeRequest(R"({"id":"d","method":"diff"})", &request, &error));
  EXPECT_TRUE(ParseServeRequest(R"({"id":"p","method":"ping"})", &request, &error));
  EXPECT_TRUE(ParseServeRequest(R"({"id":"s","method":"shutdown"})", &request, &error));
}

TEST(ServeRequestParse, BadRenderAndNegativeJobsFail) {
  ServeRequest request;
  std::string error;
  EXPECT_FALSE(ParseServeRequest(
      R"({"id":"r","method":"report","project":"p","render":"xml"})", &request, &error));
  EXPECT_FALSE(ParseServeRequest(
      R"({"id":"j","method":"report","project":"p","jobs":-1})", &request, &error));
}

TEST(ServeResponses, BuildersEmitWellFormedJson) {
  std::optional<JsonValue> error_response =
      ParseJson(MakeErrorResponse("e1", "bad_request", "what \"happened\""));
  ASSERT_TRUE(error_response.has_value());
  EXPECT_EQ(error_response->GetString("id"), "e1");
  EXPECT_EQ(error_response->GetString("status"), "error");
  EXPECT_EQ(error_response->GetString("code"), "bad_request");
  EXPECT_EQ(error_response->GetString("message"), "what \"happened\"");

  std::optional<JsonValue> shed = ParseJson(MakeShedResponse("s1", 40, "queue_full"));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->GetString("status"), "shed");
  EXPECT_EQ(shed->GetInt("retry_after_ms"), 40);
  EXPECT_EQ(shed->GetString("reason"), "queue_full");

  std::optional<JsonValue> deadline = ParseJson(MakeDeadlineResponse("d1", 123.5));
  ASSERT_TRUE(deadline.has_value());
  EXPECT_EQ(deadline->GetString("status"), "deadline");

  std::optional<JsonValue> pong = ParseJson(MakePongResponse("p1"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->GetString("status"), "ok");
  EXPECT_EQ(pong->GetString("id"), "p1");
}

}  // namespace
}  // namespace vc
