#include "net/socket.hpp"

#include <gtest/gtest.h>

#include <string>

namespace strata::net {
namespace {

TEST(ParseHostPort, AcceptsOnlyWholeDecimalPortsInRange) {
  struct Case {
    const char* addr;
    bool ok;
    const char* host;
    std::uint16_t port;
  };
  const Case cases[] = {
      {"127.0.0.1:9092", true, "127.0.0.1", 9092},
      {"localhost:0", true, "localhost", 0},  // 0 = ephemeral listener port
      {"h:65535", true, "h", 65535},
      {"h:0080", true, "h", 80},
      {"a:b:7", true, "a:b", 7},  // split at the last colon
      {"h:65536", false, "", 0},
      {"h:99999", false, "", 0},  // used to wrap to 34463
      {"h:abc", false, "", 0},    // used to become port 0
      {"h:", false, "", 0},
      {"h:-1", false, "", 0},
      {"h:+80", false, "", 0},
      {"h: 80", false, "", 0},
      {"h:80x", false, "", 0},
      {"h:8 0", false, "", 0},
      {"no-colon", false, "", 0},
      {"", false, "", 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.addr);
    std::string host = "unchanged";
    std::uint16_t port = 4321;
    ASSERT_EQ(ParseHostPort(c.addr, &host, &port), c.ok);
    if (c.ok) {
      EXPECT_EQ(host, c.host);
      EXPECT_EQ(port, c.port);
    } else {
      EXPECT_EQ(host, "unchanged");
      EXPECT_EQ(port, 4321);
    }
  }
}

}  // namespace
}  // namespace strata::net
