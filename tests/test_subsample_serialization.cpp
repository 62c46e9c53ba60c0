#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "san/san.hpp"
#include "san/serialization.hpp"
#include "san/snapshot.hpp"
#include "san/subsample.hpp"

namespace {

using san::AttributeType;
using san::load_san;
using san::NodeId;
using san::save_san;
using san::SocialAttributeNetwork;
using san::subsample_attributes;

SocialAttributeNetwork small_san() {
  SocialAttributeNetwork net;
  net.add_social_node(1.0);
  net.add_social_node(1.5);
  net.add_social_node(2.0);
  const auto a = net.add_attribute_node(AttributeType::kEmployer,
                                        "Google Inc.", 1.0);
  const auto b = net.add_attribute_node(AttributeType::kCity, "San Francisco",
                                        1.2);
  net.add_social_link(0, 1, 1.5);
  net.add_social_link(1, 0, 1.6);
  net.add_social_link(2, 0, 2.0);
  net.add_attribute_link(0, a, 1.1);
  net.add_attribute_link(1, b, 1.5);
  net.add_attribute_link(2, b, 2.0);
  return net;
}

TEST(Subsample, KeepAllPreservesEverything) {
  const auto net = small_san();
  const auto copy = subsample_attributes(net, 1.0, 42);
  EXPECT_EQ(copy.attribute_link_count(), net.attribute_link_count());
  EXPECT_EQ(copy.social_link_count(), net.social_link_count());
}

TEST(Subsample, KeepNoneDropsAllAttributeLinks) {
  const auto net = small_san();
  const auto copy = subsample_attributes(net, 0.0, 42);
  EXPECT_EQ(copy.attribute_link_count(), 0u);
  EXPECT_EQ(copy.social_link_count(), net.social_link_count());
  EXPECT_EQ(copy.attribute_node_count(), net.attribute_node_count());
}

TEST(Subsample, HalfKeepsAboutHalf) {
  // Build a larger SAN for a statistical check.
  SocialAttributeNetwork net;
  for (int i = 0; i < 2000; ++i) net.add_social_node(0.0);
  const auto a = net.add_attribute_node(AttributeType::kOther, "g");
  for (NodeId u = 0; u < 2000; ++u) net.add_attribute_link(u, a);
  const auto copy = subsample_attributes(net, 0.5, 7);
  EXPECT_NEAR(static_cast<double>(copy.attribute_link_count()), 1000.0, 80.0);
}

TEST(Subsample, InvalidProbabilityThrows) {
  const auto net = small_san();
  EXPECT_THROW(subsample_attributes(net, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(subsample_attributes(net, 1.1, 1), std::invalid_argument);
}

TEST(Serialization, RoundTripPreservesStructure) {
  const auto net = small_san();
  std::stringstream buffer;
  save_san(net, buffer);
  const auto loaded = load_san(buffer);

  EXPECT_EQ(loaded.social_node_count(), net.social_node_count());
  EXPECT_EQ(loaded.attribute_node_count(), net.attribute_node_count());
  EXPECT_EQ(loaded.social_link_count(), net.social_link_count());
  EXPECT_EQ(loaded.attribute_link_count(), net.attribute_link_count());
  EXPECT_EQ(loaded.attribute_name(0), "Google Inc.");
  EXPECT_EQ(loaded.attribute_name(1), "San Francisco");
  EXPECT_EQ(loaded.attribute_type(1), AttributeType::kCity);
  EXPECT_DOUBLE_EQ(loaded.social_node_time(1), 1.5);
  EXPECT_TRUE(loaded.social().has_edge(0, 1));
  EXPECT_TRUE(loaded.has_attribute(2, 1));

  // Snapshots of original and loaded networks agree.
  const auto s1 = san::snapshot_at(net, 1.5);
  const auto s2 = san::snapshot_at(loaded, 1.5);
  EXPECT_EQ(s1.social_node_count(), s2.social_node_count());
  EXPECT_EQ(s1.social_link_count(), s2.social_link_count());
  EXPECT_EQ(s1.attribute_link_count, s2.attribute_link_count);
}

TEST(Serialization, NamesWithSpacesSurvive) {
  SocialAttributeNetwork net;
  net.add_social_node(0.0);
  net.add_attribute_node(AttributeType::kMajor,
                         "Electrical Engineering and CS");
  net.add_attribute_link(0, 0);
  std::stringstream buffer;
  save_san(net, buffer);
  const auto loaded = load_san(buffer);
  EXPECT_EQ(loaded.attribute_name(0), "Electrical Engineering and CS");
}

TEST(Serialization, EmptyNetworkRoundTrip) {
  const SocialAttributeNetwork net;
  std::stringstream buffer;
  save_san(net, buffer);
  const auto loaded = load_san(buffer);
  EXPECT_EQ(loaded.social_node_count(), 0u);
  EXPECT_EQ(loaded.attribute_node_count(), 0u);
}

TEST(Serialization, RejectsGarbage) {
  std::stringstream bad("not a SAN file");
  EXPECT_THROW(load_san(bad), std::runtime_error);
  std::stringstream truncated("SANv1\nsocial_nodes 5\n1.0\n");
  EXPECT_THROW(load_san(truncated), std::runtime_error);
}

TEST(Serialization, EveryProperPrefixFailsAsTruncatedNamingItsSection) {
  // Fractional times matter here: a number cut short is usually still a
  // number ("1.6" -> "1."), which must not load as a shortened time.
  std::stringstream buffer;
  save_san(small_san(), buffer);
  const std::string full = buffer.str();
  const std::size_t magic_line = full.find('\n') + 1;
  const std::vector<std::string> sections{"social_nodes", "attribute_nodes",
                                          "social_links", "attribute_links"};
  std::vector<std::size_t> section_start;
  for (const auto& name : sections) {
    section_start.push_back(full.find("\n" + name + " ") + 1);
  }

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    SCOPED_TRACE(testing::Message() << "prefix of " << cut << " bytes");
    std::stringstream prefix(full.substr(0, cut));
    std::string message;
    try {
      (void)load_san(prefix);
      ADD_FAILURE() << "a proper prefix loaded";
      continue;
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    if (cut < magic_line) continue;
    // The section being read at the cut: the last one started by then.
    std::size_t section = 0;
    while (section + 1 < sections.size() &&
           section_start[section + 1] <= cut) {
      ++section;
    }
    EXPECT_NE(message.find("truncated"), std::string::npos) << message;
    EXPECT_NE(message.find(sections[section]), std::string::npos) << message;
  }

  // A cut inside the second social link's time names that record.
  const std::size_t link1 = full.find("1 0 1.6");
  std::stringstream cut_link(full.substr(0, link1 + 6));
  EXPECT_THROW(
      {
        try {
          (void)load_san(cut_link);
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "load_san: truncated social_links record 1");
          throw;
        }
      },
      std::runtime_error);
  std::stringstream whole(full);
  EXPECT_NO_THROW((void)load_san(whole));
}

TEST(Serialization, FileRoundTrip) {
  const auto net = small_san();
  const std::string path = ::testing::TempDir() + "/san_roundtrip.txt";
  save_san(net, path);
  const auto loaded = load_san(path);
  EXPECT_EQ(loaded.social_link_count(), net.social_link_count());
}

TEST(Serialization, MissingFileThrows) {
  EXPECT_THROW(load_san(std::string("/nonexistent/definitely/missing.san")),
               std::runtime_error);
}

}  // namespace
