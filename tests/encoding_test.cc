// The shared `key=value` line reader (runner/encoding.h): its exact line
// semantics are part of every format that reads through it — cache
// entries, canonical specs and the service protocol — so each edge case
// is pinned here.
#include "runner/encoding.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

namespace asyncrv {
namespace {

using runner::LineReader;

TEST(LineReader, FinalLineWithoutNewlineIsALine) {
  const std::string text = "a=1\nb=2";
  LineReader in(text);
  EXPECT_EQ(in.line(), std::optional<std::string>("a=1"));
  EXPECT_EQ(in.line(), std::optional<std::string>("b=2"));
  EXPECT_EQ(in.line(), std::nullopt);
  EXPECT_EQ(in.line(), std::nullopt);  // EOF is permanent
}

TEST(LineReader, TrailingNewlineEndsTheInput) {
  const std::string text = "a\n";
  LineReader in(text);
  EXPECT_EQ(in.line(), std::optional<std::string>("a"));
  EXPECT_EQ(in.line(), std::nullopt);
}

TEST(LineReader, EmptyLinesAreLines) {
  const std::string text = "a\n\n\nb\n";
  LineReader in(text);
  EXPECT_EQ(in.line(), std::optional<std::string>("a"));
  EXPECT_EQ(in.line(), std::optional<std::string>(""));
  EXPECT_EQ(in.line(), std::optional<std::string>(""));
  EXPECT_EQ(in.line(), std::optional<std::string>("b"));
  EXPECT_EQ(in.line(), std::nullopt);

  const std::string lone = "\n";
  LineReader one(lone);
  EXPECT_EQ(one.line(), std::optional<std::string>(""));
  EXPECT_EQ(one.line(), std::nullopt);
}

TEST(LineReader, EmptyInputHasNoLines) {
  const std::string text;
  LineReader in(text);
  EXPECT_EQ(in.line(), std::nullopt);
  LineReader fields(text);
  EXPECT_EQ(fields.field("a"), std::nullopt);
  LineReader numbers(text);
  EXPECT_EQ(numbers.u64("a"), std::nullopt);
  LineReader flags(text);
  EXPECT_EQ(flags.flag("a"), std::nullopt);
}

TEST(LineReader, CarriageReturnsAndOtherBytesAreKeptVerbatim) {
  const std::string text =
      std::string("k=v\r\nx\r\n\r\n") + '\0' + "\x80\xff=\t\n";
  LineReader in(text);
  EXPECT_EQ(in.field("k"), std::optional<std::string>("v\r"));
  EXPECT_EQ(in.line(), std::optional<std::string>("x\r"));
  EXPECT_EQ(in.line(), std::optional<std::string>("\r"));
  EXPECT_EQ(in.line(),
            std::optional<std::string>(std::string("\0\x80\xff=\t", 5)));
  EXPECT_EQ(in.line(), std::nullopt);

  // A "1\r" flag or numeral is not "1".
  const std::string crlf = "f=1\r\nn=7\r\n";
  LineReader strict(crlf);
  EXPECT_EQ(strict.flag("f"), std::nullopt);
  EXPECT_EQ(strict.u64("n"), std::nullopt);
}

TEST(LineReader, FieldMatchesTheWholeKeyAndConsumesTheLine) {
  const std::string text = "ab=1\na=2\nkey=\nk=v=w\n=x\n";
  LineReader in(text);
  EXPECT_EQ(in.field("a"), std::nullopt);   // "a" is a prefix of "ab"
  EXPECT_EQ(in.field("ab"), std::nullopt);  // the mismatch consumed "ab=1"
  EXPECT_EQ(in.field("key"), std::optional<std::string>(""));
  EXPECT_EQ(in.field("k"), std::optional<std::string>("v=w"));
  EXPECT_EQ(in.field(""), std::optional<std::string>("x"));
  EXPECT_EQ(in.field("k"), std::nullopt);

  const std::string bare = "key\nkey=1\n";
  LineReader no_equals(bare);
  EXPECT_EQ(no_equals.field("key"), std::nullopt);
  EXPECT_EQ(no_equals.field("key"), std::optional<std::string>("1"));
}

TEST(LineReader, U64IsStrictDecimalWithOverflowRejected) {
  const std::string text =
      "n=0\nn=18446744073709551615\nn=18446744073709551616\n"
      "n=99999999999999999999\nn=007\nn=\nn=+1\nn=-1\nn= 1\nn=1 \nn=0x1\n";
  LineReader in(text);
  EXPECT_EQ(in.u64("n"), std::optional<std::uint64_t>(0));
  EXPECT_EQ(in.u64("n"), std::optional<std::uint64_t>(UINT64_MAX));
  EXPECT_EQ(in.u64("n"), std::nullopt);  // 2^64
  EXPECT_EQ(in.u64("n"), std::nullopt);
  EXPECT_EQ(in.u64("n"), std::optional<std::uint64_t>(7));  // zeros allowed
  for (int i = 0; i < 6; ++i) EXPECT_EQ(in.u64("n"), std::nullopt) << i;
  EXPECT_EQ(in.u64("n"), std::nullopt);  // EOF
}

TEST(LineReader, FlagAcceptsOnlyZeroAndOne) {
  const std::string text = "f=0\nf=1\nf=2\nf=\nf=01\nf=true\nf=10\ng=1\n";
  LineReader in(text);
  EXPECT_EQ(in.flag("f"), std::optional<bool>(false));
  EXPECT_EQ(in.flag("f"), std::optional<bool>(true));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(in.flag("f"), std::nullopt) << i;
  EXPECT_EQ(in.flag("f"), std::nullopt);  // wrong key
  EXPECT_EQ(in.flag("f"), std::nullopt);  // EOF
}

TEST(LineReader, SkipConsumesExactlyTheGivenBytes) {
  const std::string text = "a=1\nb=2\nc";
  LineReader in(text);
  EXPECT_FALSE(in.skip("a=1\nb=3"));  // mismatch: nothing consumed
  EXPECT_TRUE(in.skip("a=1\nb="));    // may end mid-line
  EXPECT_EQ(in.line(), std::optional<std::string>("2"));
  EXPECT_FALSE(in.skip("c\n"));       // runs past the input
  EXPECT_TRUE(in.skip("c"));
  EXPECT_EQ(in.line(), std::nullopt);
  EXPECT_FALSE(in.skip("x"));
}

TEST(LineReader, StaticParsers) {
  EXPECT_EQ(LineReader::parse_i64("-9223372036854775807"),
            std::optional<std::int64_t>(-9223372036854775807LL));
  EXPECT_EQ(LineReader::parse_i64("9223372036854775808"), std::nullopt);
  EXPECT_EQ(LineReader::parse_i64("-"), std::nullopt);
  using List = std::vector<std::uint64_t>;
  EXPECT_EQ(LineReader::u64_list(""), std::optional<List>(List{}));
  EXPECT_EQ(LineReader::u64_list("1,2,3"), std::optional<List>({1, 2, 3}));
  EXPECT_EQ(LineReader::u64_list("1,,3"), std::nullopt);
  EXPECT_EQ(LineReader::u64_list("1,"), std::nullopt);
}

}  // namespace
}  // namespace asyncrv
