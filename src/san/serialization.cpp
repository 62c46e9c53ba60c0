#include "san/serialization.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace san {
namespace {

constexpr const char* kMagic = "SANv1";

/// Token reader for load_san that names where a load stopped. The writer
/// ends every line with '\n', so each token must be followed by
/// whitespace: a token that runs into end of input was cut short, and a
/// cut number is usually still a number (a shortened time would load, or
/// trip an ordering check far from the real fault). Tokens are scanned
/// straight off the stream buffer and numbers parsed with from_chars,
/// which round-trips the writer's max_digits10 times exactly.
class Reader {
 public:
  explicit Reader(std::istream& in) : buf_(*in.rdbuf()) {}

  /// Reads the `<name> <count>` line that opens a section and returns the
  /// count; later failures name this section.
  std::uint64_t header(const char* name) {
    section_ = name;
    in_header_ = true;
    if (word() != name) fail(std::string("expected ") + name);
    const auto count = number<std::uint64_t>();
    in_header_ = false;
    return count;
  }

  /// Failures from here on name record `index` of the current section.
  void record(std::uint64_t index) { record_ = index; }

  template <typename T>
  T number() {
    const std::string_view token = word();
    T value{};
    const char* end = token.data() + token.size();
    const auto [stop_at, error] = std::from_chars(token.data(), end, value);
    if (error != std::errc() || stop_at != end) stop("malformed");
    return value;
  }

  /// The next whitespace-delimited token, which must be followed by
  /// whitespace (left unread).
  std::string_view word() {
    int c = buf_.sgetc();
    while (c != kEof && is_space(c)) c = buf_.snextc();
    token_.clear();
    while (c != kEof && !is_space(c)) {
      token_.push_back(static_cast<char>(c));
      c = buf_.snextc();
    }
    if (c == kEof) stop("truncated");
    return token_;
  }

  /// The rest of the current line, which must end in '\n' (consumed).
  std::string rest_of_line() {
    std::string line;
    for (int c = buf_.sbumpc(); c != '\n'; c = buf_.sbumpc()) {
      if (c == kEof) stop("truncated");
      line.push_back(static_cast<char>(c));
    }
    return line;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("load_san: " + message);
  }

 private:
  static constexpr int kEof = std::char_traits<char>::eof();

  static bool is_space(int c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }

  [[noreturn]] void stop(const char* what) const {
    fail(std::string(what) + " " + section_ +
         (in_header_ ? std::string(" header")
                     : " record " + std::to_string(record_)));
  }

  std::streambuf& buf_;
  std::string token_;  // reused: no allocation per token
  const char* section_ = kMagic;
  bool in_header_ = true;
  std::uint64_t record_ = 0;
};

}  // namespace

void save_san(const SocialAttributeNetwork& network, std::ostream& out) {
  // Timestamps must survive a save/load round trip exactly: SanTimeline
  // snapshots binary-search them, so a 6-digit default would shift snapshot
  // boundaries for fractional times.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << kMagic << '\n';
  out << "social_nodes " << network.social_node_count() << '\n';
  for (std::size_t u = 0; u < network.social_node_count(); ++u) {
    out << network.social_node_time(static_cast<NodeId>(u)) << '\n';
  }
  out << "attribute_nodes " << network.attribute_node_count() << '\n';
  for (std::size_t a = 0; a < network.attribute_node_count(); ++a) {
    const auto id = static_cast<AttrId>(a);
    // Name goes last because it may contain spaces (never newlines).
    out << static_cast<int>(network.attribute_type(id)) << ' '
        << network.attribute_node_time(id) << ' ' << network.attribute_name(id)
        << '\n';
  }
  out << "social_links " << network.social_log().size() << '\n';
  for (const auto& e : network.social_log()) {
    out << e.src << ' ' << e.dst << ' ' << e.time << '\n';
  }
  out << "attribute_links " << network.attribute_log().size() << '\n';
  for (const auto& link : network.attribute_log()) {
    out << link.user << ' ' << link.attr << ' ' << link.time << '\n';
  }
}

void save_san(const SocialAttributeNetwork& network, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_san: cannot open " + path);
  save_san(network, out);
  // Opening writable says nothing about the writes themselves: surface a
  // full disk as a failure instead of leaving a truncated SANv1 file.
  out.flush();
  if (!out) throw std::runtime_error("save_san: short write to " + path);
}

SocialAttributeNetwork load_san(std::istream& in) {
  Reader reader(in);
  if (reader.word() != kMagic) reader.fail("bad magic");

  SocialAttributeNetwork network;
  const std::uint64_t n_social = reader.header("social_nodes");
  for (std::uint64_t u = 0; u < n_social; ++u) {
    reader.record(u);
    network.add_social_node(reader.number<double>());
  }

  const std::uint64_t n_attr = reader.header("attribute_nodes");
  for (std::uint64_t a = 0; a < n_attr; ++a) {
    reader.record(a);
    const int type = reader.number<int>();
    const double time = reader.number<double>();
    if (type < 0 || type >= kAttributeTypeCount) {
      reader.fail("bad attribute type");
    }
    std::string name = reader.rest_of_line();
    if (!name.empty() && name.front() == ' ') name.erase(0, 1);
    network.add_attribute_node(static_cast<AttributeType>(type), name, time);
  }

  const std::uint64_t n_links = reader.header("social_links");
  for (std::uint64_t i = 0; i < n_links; ++i) {
    reader.record(i);
    const auto u = reader.number<NodeId>();
    const auto v = reader.number<NodeId>();
    network.add_social_link(u, v, reader.number<double>());
  }

  const std::uint64_t n_attr_links = reader.header("attribute_links");
  for (std::uint64_t i = 0; i < n_attr_links; ++i) {
    reader.record(i);
    const auto u = reader.number<NodeId>();
    const auto a = reader.number<AttrId>();
    network.add_attribute_link(u, a, reader.number<double>());
  }
  return network;
}

SocialAttributeNetwork load_san(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_san: cannot open " + path);
  return load_san(in);
}

}  // namespace san
