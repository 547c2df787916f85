#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

int Trace::open(std::string name, int run) {
  const double now = std::chrono::duration<double>(Clock::now() - origin_).count();
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), now, now, parent, run});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Trace::close(int id) noexcept {
  open_.pop_back();  // ScopedSpan closes innermost-first.
  spans_[static_cast<std::size_t>(id)].end =
      std::chrono::duration<double>(Clock::now() - origin_).count();
}

double Trace::duration(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end - s.start;
}

std::vector<int> Trace::children(int id) const {
  std::vector<int> out;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    if (spans_[k].parent == id) out.push_back(static_cast<int>(k));
  }
  return out;
}

double Trace::self_seconds(int id) const {
  std::vector<std::pair<double, double>> covered;
  for (const int c : children(id)) {
    covered.emplace_back(spans_[static_cast<std::size_t>(c)].start,
                         spans_[static_cast<std::size_t>(c)].end);
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0;
  double reach = -1e300;
  for (const auto& [start, end] : covered) {
    const double from = std::max(start, reach);
    if (end > from) busy += end - from;
    reach = std::max(reach, end);
  }
  return duration(id) - busy;
}

void Trace::write_chrome(const std::string& path, const std::string& metadata) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata << ",\n \"traceEvents\": [\n";
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    const std::string parent = s.parent < 0 ? "null" : std::to_string(s.parent);
    out << "  {\"name\": " << json_string(s.name) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << s.run << ", \"ts\": " << s.start * 1e6 << ", \"dur\": " << (s.end - s.start) * 1e6
        << ", \"args\": {\"id\": " << k << ", \"parent\": " << parent << ", \"run\": " << s.run
        << "}}" << (k + 1 < spans_.size() ? "," : "") << "\n";
  }
  out << " ]}\n";
  if (!out.flush()) throw std::runtime_error("short write to trace file " + path);
}

void Trace::print_self_times(std::FILE* out, int root) const {
  const double total = duration(root);
  std::fprintf(out, "  %-28s %12s %12s %8s\n", "span", "total s", "self s", "% root");
  for (const int c : children(root)) {
    const std::string& name = spans_[static_cast<std::size_t>(c)].name;
    std::fprintf(out, "  %-28s %12.6f %12.6f %7.2f%%\n", name.c_str(), duration(c),
                 self_seconds(c), 100.0 * duration(c) / total);
  }
  std::fprintf(out, "  %-28s %12s %12.6f %7.2f%%\n", "unattributed", "", self_seconds(root),
               100.0 * self_seconds(root) / total);
  std::fprintf(out, "  %-28s %12.6f\n", spans_[static_cast<std::size_t>(root)].name.c_str(), total);
}

}  // namespace perfbench
