// Open-loop load generator for `san_tool listen`, the client side of the
// serving benchmark (run.py). One thread drives every connection from one
// ppoll loop: step j of the run is due at start + j / rate and goes out on
// connection j % conns whether or not earlier answers have come back, so a
// stalled server builds a queue the way independent users would.
//
//   servebench_loadgen --port P --workload FILE --rate R [--conns C]
//                      [--out FILE]
//
// The run sends every step of FILE (comment and blank lines skipped) in
// order. Each query is timed
// from when it was DUE, not from when it was sent, so generator lateness
// and queueing both count. Responses are matched to steps per connection:
// an `ERR workload line N: ...` names its line, any other line answers the
// oldest unanswered query. --out receives one line per step in step
// order — its answer, or an empty line for an accepted ingest and for a
// query never answered — for byte comparison with file replay. One JSON object on stdout
// carries the counts and timings; the exit code is 0 unless the client
// itself failed (bad flags, no connection).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

/// How long before a step is due the send loop stops sleeping and spins.
constexpr std::int64_t kSpinNs = 2'000'000;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

const char* flag(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "servebench_loadgen: %s\n", what);
  std::exit(2);
}

std::vector<std::string> read_steps(const char* path) {
  std::ifstream in(path);
  if (!in) die("cannot read --workload");
  std::vector<std::string> steps;
  std::string line;
  while (std::getline(in, line)) {
    const auto mark = line.find_first_not_of(" \t\r");
    if (mark == std::string::npos || line[mark] == '#') continue;
    steps.push_back(line + "\n");
  }
  if (steps.empty()) die("--workload holds no steps");
  return steps;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    die("cannot connect to the server");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Connection {
  int fd = -1;
  std::string out;                  // bytes queued, not yet written
  std::size_t out_off = 0;
  std::string in;                   // bytes read, not yet split into lines
  std::vector<std::size_t> by_line;  // per-connection line number - 1 -> step
  std::deque<std::size_t> queries;  // query steps awaiting an answer
  bool eof = false;
  bool shut = false;                // SHUT_WR sent
};

/// Nearest-rank quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[std::min(rank, sorted.size()) - 1];
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time, not +50 us

  const char* workload = flag(argc, argv, "--workload", nullptr);
  const char* out_path = flag(argc, argv, "--out", nullptr);
  const long port = std::atol(flag(argc, argv, "--port", "0"));
  const double rate = std::atof(flag(argc, argv, "--rate", "0"));
  const long conns_arg = std::atol(flag(argc, argv, "--conns", "1"));
  if (workload == nullptr || port <= 0 || port > 65535 || !(rate > 0.0) ||
      conns_arg <= 0 || conns_arg > 64) {
    die("usage: --port P --workload FILE --rate R [--conns C] [--out FILE]");
  }
  const auto lines = read_steps(workload);
  const std::size_t n = lines.size();
  const auto conn_count = static_cast<std::size_t>(conns_arg);

  std::vector<Connection> conns(conn_count);
  for (auto& conn : conns) conn.fd = connect_loopback(static_cast<std::uint16_t>(port));

  // Per step: the workload line, whether it expects an answer (queries
  // always do; ingest lines only when refused), and its timings.
  std::vector<char> is_query(n);
  for (std::size_t j = 0; j < n; ++j) {
    is_query[j] = lines[j].compare(0, 7, "ingest ") != 0;
  }
  std::vector<std::string> response(n);
  std::vector<char> answered(n, 0);
  std::vector<double> latency_ms(n, -1.0);
  std::vector<double> late_ms;
  late_ms.reserve(n);

  const auto period = std::chrono::duration<double>(1.0 / rate);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::size_t j) {
    return start + std::chrono::duration_cast<Clock::duration>(period * j);
  };

  std::size_t next = 0, open = conn_count, unmatched = 0;
  Clock::time_point last_queued = start;
  // Answers still missing this long after the last step was due count as
  // missing, so a wedged server cannot hang the run.
  const auto deadline_after_send = std::chrono::seconds(30);
  const Clock::time_point last_due = due(n - 1);
  std::vector<pollfd> fds(conn_count);
  char buf[1 << 16];

  const auto finish_line = [&](Connection& conn, const std::string& text,
                               Clock::time_point now) {
    std::size_t step = n;
    if (text.compare(0, 18, "ERR workload line ") == 0) {
      const std::size_t line_no = std::strtoull(text.c_str() + 18, nullptr, 10);
      if (line_no >= 1 && line_no <= conn.by_line.size()) {
        step = conn.by_line[line_no - 1];
        const auto it = std::find(conn.queries.begin(), conn.queries.end(), step);
        if (it != conn.queries.end()) conn.queries.erase(it);
      }
    } else {
      while (!conn.queries.empty() && answered[conn.queries.front()]) {
        conn.queries.pop_front();
      }
      if (!conn.queries.empty()) {
        step = conn.queries.front();
        conn.queries.pop_front();
      }
    }
    if (step == n || answered[step]) {
      ++unmatched;
      return;
    }
    answered[step] = 1;
    response[step] = text;
    if (is_query[step]) latency_ms[step] = ms_between(due(step), now);
  };

  while (open > 0) {
    auto now = Clock::now();
    // Queue every step that is due by now; one write per connection.
    while (next < n && due(next) <= now) {
      Connection& conn = conns[next % conn_count];
      conn.out += lines[next];
      conn.by_line.push_back(next);
      if (is_query[next]) conn.queries.push_back(next);
      late_ms.push_back(ms_between(due(next), now));
      last_queued = now;
      ++next;
    }
    for (auto& conn : conns) {
      while (conn.fd >= 0 && conn.out_off < conn.out.size()) {
        const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off,
                                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (w > 0) {
          conn.out_off += static_cast<std::size_t>(w);
        } else {
          if (w < 0 && errno == EINTR) continue;
          if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          conn.out.clear();  // peer gone: its steps stay unanswered
          conn.out_off = 0;
          break;
        }
      }
      if (conn.out_off == conn.out.size()) {
        conn.out.clear();
        conn.out_off = 0;
      }
    }
    if (next == n) {
      // Everything sent: half-close so the server flushes and closes.
      for (auto& conn : conns) {
        if (!conn.shut && conn.out.empty()) {
          ::shutdown(conn.fd, SHUT_WR);
          conn.shut = true;
        }
      }
      if (now - last_due > deadline_after_send) break;
    }

    for (std::size_t c = 0; c < conn_count; ++c) {
      fds[c].fd = conns[c].eof ? -1 : conns[c].fd;
      fds[c].events = static_cast<short>(
          POLLIN | (conns[c].out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    // Sleep until shortly before the next step is due, then spin: a
    // wake-up from a full sleep can land a millisecond late.
    timespec wait{0, 20'000'000};
    if (next < n) {
      const auto ns = std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                 due(next) - now)
                     .count() -
                 kSpinNs);
      wait.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
      wait.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    }
    if (::ppoll(fds.data(), fds.size(), &wait, nullptr) < 0 && errno != EINTR) {
      die("ppoll failed");
    }
    now = Clock::now();
    for (std::size_t c = 0; c < conn_count; ++c) {
      Connection& conn = conns[c];
      if (conn.eof || (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      for (;;) {
        const ssize_t r = ::recv(conn.fd, buf, sizeof buf, 0);
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (r <= 0) {
          conn.eof = true;
          --open;
          break;
        }
        conn.in.append(buf, static_cast<std::size_t>(r));
      }
      std::size_t begin = 0, nl;
      while ((nl = conn.in.find('\n', begin)) != std::string::npos) {
        finish_line(conn, conn.in.substr(begin, nl - begin), now);
        begin = nl + 1;
      }
      conn.in.erase(0, begin);
    }
  }
  const auto end = Clock::now();
  for (auto& conn : conns) ::close(conn.fd);

  // A refused or missing answer misses any latency limit.
  constexpr double kMissed = 1e9;
  std::size_t queries = 0, errors = 0, missing = 0;
  std::vector<double> sample, tail;
  const std::size_t tail_from = n - n / 10;
  for (std::size_t j = 0; j < n; ++j) {
    const bool refused = answered[j] && response[j].compare(0, 4, "ERR ") == 0;
    errors += refused;
    if (!is_query[j]) continue;
    ++queries;
    missing += !answered[j];
    const double ms = answered[j] && !refused ? latency_ms[j] : kMissed;
    sample.push_back(ms);
    if (j >= tail_from) tail.push_back(ms);
  }
  std::sort(sample.begin(), sample.end());
  std::sort(tail.begin(), tail.end());
  std::sort(late_ms.begin(), late_ms.end());

  if (out_path != nullptr) {
    std::FILE* file = std::fopen(out_path, "w");
    if (file == nullptr) die("cannot write --out");
    for (std::size_t j = 0; j < n; ++j) {
      std::fprintf(file, "%s\n", response[j].c_str());
    }
    if (std::fclose(file) != 0) die("short write to --out");
  }
  std::printf(
      "{\"steps\": %zu, \"queries\": %zu, \"errors\": %zu, \"missing\": %zu,"
      " \"unmatched\": %zu,"
      " \"samples\": %zu, \"p50_ms\": %.6f, \"p99_ms\": %.6f,"
      " \"tail_p99_ms\": %.6f, \"send_late_p99_ms\": %.6f,"
      " \"send_late_max_ms\": %.6f, \"offered_qps\": %.3f,"
      " \"span_s\": %.6f}\n",
      n, queries, errors, missing, unmatched, sample.size(), quantile(sample, 0.50),
      quantile(sample, 0.99), quantile(tail, 0.99), quantile(late_ms, 0.99),
      late_ms.empty() ? 0.0 : late_ms.back(),
      n > 1 ? (n - 1) / (ms_between(start, last_queued) / 1e3) : rate,
      ms_between(start, end) / 1e3);
  return 0;
}
