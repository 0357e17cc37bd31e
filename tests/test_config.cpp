#include "util/config.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace eadt {
namespace {

TEST(ConfigParse, SectionsAndKeys) {
  const auto cfg = Config::parse(
      "[alpha]\n"
      "x = 1\n"
      "name = hello world\n"
      "[beta]\n"
      "y=2\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_TRUE(cfg->has_section("alpha"));
  EXPECT_TRUE(cfg->has_section("beta"));
  EXPECT_FALSE(cfg->has_section("gamma"));
  EXPECT_EQ(cfg->get("alpha", "x"), "1");
  EXPECT_EQ(cfg->get("alpha", "name"), "hello world");
  EXPECT_EQ(cfg->get("beta", "y"), "2");
  EXPECT_FALSE(cfg->get("alpha", "missing").has_value());
}

TEST(ConfigParse, CommentsAndBlankLines) {
  const auto cfg = Config::parse(
      "# full line comment\n"
      "\n"
      "[s]  ; trailing comment on section\n"
      "a = 1  # trailing comment\n"
      "b = 2  ; another\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->get("s", "a"), "1");
  EXPECT_EQ(cfg->get("s", "b"), "2");
}

TEST(ConfigParse, WhitespaceTrimming) {
  const auto cfg = Config::parse("[ s ]\n  key with spaces  =  value here  \n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->get("s", "key with spaces"), "value here");
}

TEST(ConfigParse, LaterDuplicateWins) {
  const auto cfg = Config::parse("[s]\nk = 1\nk = 2\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->get("s", "k"), "2");
}

TEST(ConfigParse, ErrorsCarryLineNumbers) {
  std::string err;
  EXPECT_FALSE(Config::parse("[s]\nno_equals_here\n", &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos);

  EXPECT_FALSE(Config::parse("key = before any section\n", &err).has_value());
  EXPECT_NE(err.find("line 1"), std::string::npos);

  EXPECT_FALSE(Config::parse("[unterminated\n", &err).has_value());
  EXPECT_FALSE(Config::parse("[]\nx=1\n", &err).has_value());
  EXPECT_FALSE(Config::parse("[s]\n= valueless\n", &err).has_value());
}

TEST(ConfigParse, EmptyInputIsValid) {
  const auto cfg = Config::parse("");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_TRUE(cfg->sections().empty());
}

TEST(ConfigParse, EmptySectionAllowed) {
  const auto cfg = Config::parse("[empty]\n[full]\nx=1\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_TRUE(cfg->has_section("empty"));
  EXPECT_TRUE(cfg->keys("empty").empty());
}

TEST(ConfigTyped, Lists) {
  const auto cfg = Config::parse("[s]\nl = a, b ,c,,  d  \nempty =\n");
  const auto items = cfg->get_list("s", "l");
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0], "a");
  EXPECT_EQ(items[1], "b");
  EXPECT_EQ(items[2], "c");
  EXPECT_EQ(items[3], "d");
  EXPECT_TRUE(cfg->get_list("s", "empty").empty());
  EXPECT_TRUE(cfg->get_list("s", "missing").empty());
}

TEST(ConfigIntrospection, SectionsAndKeyLists) {
  const auto cfg = Config::parse("[b]\nx=1\n[a]\ny=2\nz=3\n");
  const auto sections = cfg->sections();
  ASSERT_EQ(sections.size(), 2u);  // sorted by map
  EXPECT_EQ(sections[0], "a");
  EXPECT_EQ(sections[1], "b");
  EXPECT_EQ(cfg->keys("a").size(), 2u);
  EXPECT_TRUE(cfg->keys("nope").empty());
}

TEST(ParseSize, SuffixZoo) {
  EXPECT_EQ(parse_size("1024"), 1024u);
  EXPECT_EQ(parse_size("4KB"), 4 * kKB);
  EXPECT_EQ(parse_size("4 kb"), 4 * kKB);
  EXPECT_EQ(parse_size("4KiB"), 4 * kKB);
  EXPECT_EQ(parse_size("2m"), 2 * kMB);
  EXPECT_EQ(parse_size("3GB"), 3 * kGB);
  EXPECT_EQ(parse_size("1TB"), 1024 * kGB);
  EXPECT_EQ(parse_size("0.5MB"), 512 * kKB);
  EXPECT_FALSE(parse_size("").has_value());
  EXPECT_FALSE(parse_size("MB").has_value());
  EXPECT_FALSE(parse_size("12XB").has_value());
  EXPECT_FALSE(parse_size("-3MB").has_value());
}

TEST(Trim, Basics) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}


// Robustness sweep: arbitrary byte soup must never crash the parser — it
// either parses or reports a lined error.
class ConfigFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ConfigFuzz, ParserNeverCrashes) {
  Rng rng(9000 + static_cast<std::uint64_t>(GetParam()));
  std::string text;
  const int len = static_cast<int>(rng.uniform_int(0, 400));
  const char alphabet[] = "ab =[]#;\n\t0129.:,-_/";
  for (int i = 0; i < len; ++i) {
    text += alphabet[rng.uniform_int(0, sizeof(alphabet) - 2)];
  }
  std::string error;
  const auto cfg = Config::parse(text, &error);
  if (!cfg) {
    EXPECT_NE(error.find("line"), std::string::npos) << text;
  } else {
    // Whatever parsed must answer lookups without incident.
    for (const auto& section : cfg->sections()) {
      for (const auto& key : cfg->keys(section)) {
        const auto value = cfg->get(section, key);
        ASSERT_TRUE(value.has_value()) << text;
        (void)parse_size(*value);
        (void)cfg->get_list(section, key);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSoup, ConfigFuzz, ::testing::Range(0, 20));

TEST(ConfigLoad, MissingFileReportsError) {
  std::string err;
  EXPECT_FALSE(Config::load("/nonexistent/path/x.ini", &err).has_value());
  EXPECT_NE(err.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace eadt
