#include "common/status.hpp"

#include <gtest/gtest.h>

namespace strata {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(Status, FactoriesSetCodeAndMessage) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::Closed().IsClosed());
  EXPECT_TRUE(Status::Timeout().IsTimeout());
  EXPECT_FALSE(Status::IoError("disk").ok());
  EXPECT_EQ(Status::IoError("disk").ToString(), "IoError: disk");
}

TEST(Status, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Corruption("a"));
}

TEST(Status, OrDieThrowsOnError) {
  EXPECT_NO_THROW(Status::Ok().OrDie());
  EXPECT_THROW(Status::IoError("boom").OrDie(), std::runtime_error);
}

TEST(Status, CodeNamesCoverAllCodes) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kClosed), "Closed");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTimeout), "Timeout");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
}

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_THROW((void)r.value(), std::runtime_error);
}

TEST(Result, RejectsOkStatusWithoutValue) {
  EXPECT_THROW(Result<int>(Status::Ok()), std::logic_error);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

Status Fails() { return Status::IoError("inner"); }
Status Propagates() {
  STRATA_RETURN_IF_ERROR(Fails());
  return Status::Ok();
}

TEST(Status, ReturnIfErrorMacroPropagates) {
  EXPECT_EQ(Propagates().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace strata
