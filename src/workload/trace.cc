#include "workload/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/parse.h"

namespace csfc {

std::string FormatTraceLine(const Request& r) {
  std::ostringstream out;
  out << r.id << ' ' << r.arrival << ' '
      << (r.has_deadline() ? r.deadline : -1) << ' ' << r.cylinder << ' '
      << r.bytes << ' ' << (r.is_write ? 1 : 0) << ' ' << r.stream;
  for (PriorityLevel p : r.priorities) out << ' ' << p;
  return out.str();
}

namespace {

/// Splits off the next whitespace-delimited token; empty at end of line.
std::string_view NextToken(std::string_view& rest) {
  constexpr std::string_view kSpace = " \t\r\n\f\v";
  const size_t begin = rest.find_first_not_of(kSpace);
  if (begin == std::string_view::npos) {
    rest = {};
    return {};
  }
  rest.remove_prefix(begin);
  const size_t len = std::min(rest.find_first_of(kSpace), rest.size());
  const std::string_view token = rest.substr(0, len);
  rest.remove_prefix(len);
  return token;
}

}  // namespace

Result<Request> ParseTraceLine(const std::string& line) {
  std::string_view rest(line);
  Request r;
  int64_t deadline = 0;
  uint32_t is_write = 0;
  if (!ParseToken(NextToken(rest), &r.id) ||
      !ParseToken(NextToken(rest), &r.arrival) ||
      !ParseToken(NextToken(rest), &deadline) ||
      !ParseToken(NextToken(rest), &r.cylinder) ||
      !ParseToken(NextToken(rest), &r.bytes) ||
      !ParseToken(NextToken(rest), &is_write) ||
      !ParseToken(NextToken(rest), &r.stream)) {
    return Status::InvalidArgument("malformed trace line: " + line);
  }
  if (r.arrival < 0) {
    return Status::InvalidArgument("negative arrival in trace line: " + line);
  }
  if (deadline < -1) {
    return Status::InvalidArgument("negative deadline in trace line: " + line);
  }
  if (is_write > 1) {
    return Status::InvalidArgument("is_write must be 0 or 1 in trace line: " +
                                   line);
  }
  r.deadline = deadline == -1 ? kNoDeadline : deadline;
  r.is_write = is_write == 1;
  for (std::string_view token = NextToken(rest); !token.empty();
       token = NextToken(rest)) {
    PriorityLevel p = 0;
    if (!ParseToken(token, &p)) {
      return Status::InvalidArgument("bad priority level in trace line: " +
                                     line);
    }
    if (r.priorities.size() == kMaxPriorityDims) {
      return Status::InvalidArgument(
          "more than " + std::to_string(kMaxPriorityDims) +
          " priority levels in trace line: " + line);
    }
    r.priorities.push_back(p);
  }
  return r;
}

Status SaveTrace(const std::string& path,
                 const std::vector<Request>& requests) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << "# csfc trace v1: id arrival_us deadline_us cyl bytes write stream "
         "priorities...\n";
  for (const Request& r : requests) out << FormatTraceLine(r) << '\n';
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<std::vector<Request>> LoadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::vector<Request> requests;
  std::string line;
  SimTime last_arrival = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    Result<Request> r = ParseTraceLine(line);
    if (!r.ok()) return r.status();
    if (r->arrival < last_arrival) {
      return Status::InvalidArgument(
          "trace is not arrival-ordered at request id " +
          std::to_string(r->id));
    }
    last_arrival = r->arrival;
    requests.push_back(std::move(*r));
  }
  return requests;
}

std::vector<Request> DrainGenerator(RequestGenerator& gen,
                                    uint64_t max_requests) {
  std::vector<Request> out;
  for (uint64_t i = 0; i < max_requests; ++i) {
    std::optional<Request> r = gen.Next();
    if (!r) break;
    out.push_back(std::move(*r));
  }
  return out;
}

}  // namespace csfc
