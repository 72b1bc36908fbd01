// In-memory spans around the benchmark's calls into the library, written
// out as Chrome trace-event JSON (opens in Perfetto or chrome://tracing)
// when the run ends. Nothing is recorded inside the library itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  int parent = -1;  // index into the same SpanLog, -1 for a root span
  std::uint64_t request = 0;
  double dur_us() const { return end_us - start_us; }
};

/// One thread's spans; merge logs after the threads have joined.
class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, int track) : epoch_(epoch), track_(track) {}

  int open(const char* name, std::uint64_t request, int parent = -1) {
    spans_.push_back({name, now_us(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span) { spans_[static_cast<std::size_t>(span)].end_us = now_us(); }

  /// Records a span whose times were taken by the caller.
  int add(const char* name, std::uint64_t request, Clock::time_point start,
          Clock::time_point end, int parent = -1) {
    spans_.push_back({name, us(start), us(end), parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }
  int track() const { return track_; }

  /// Self time of span `index`: its duration minus the time its direct
  /// children cover (children never overlap within one log).
  double self_us(std::size_t index) const {
    double covered = 0;
    for (std::size_t i = index + 1; i < spans_.size(); ++i) {
      if (spans_[i].parent == static_cast<int>(index)) covered += spans_[i].dur_us();
      if (spans_[i].start_us >= spans_[index].end_us) break;
    }
    return spans_[index].dur_us() - covered;
  }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  double now_us() const { return us(Clock::now()); }

  Clock::time_point epoch_;
  int track_;
  std::vector<Span> spans_;
};

inline std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Writes every span of `logs` as complete ("X") events, one Perfetto
/// track per log, plus `notes` as string metadata. Returns false when the
/// file cannot be written.
inline bool write_chrome_trace(
    const std::string& path, const std::vector<const SpanLog*>& logs,
    const std::vector<std::pair<std::string, std::string>>& notes) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"otherData\":{", file);
  for (std::size_t i = 0; i < notes.size(); ++i) {
    std::fprintf(file, "%s%s:%s", i ? "," : "", json_string(notes[i].first).c_str(),
                 json_string(notes[i].second).c_str());
  }
  std::fputs("},\"traceEvents\":[", file);
  bool first = true;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(file,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"parent\":\"%s\",\"self_us\":%.3f}}",
                   first ? "" : ",", s.name, log->track(), s.start_us, s.dur_us(),
                   static_cast<unsigned long long>(s.request),
                   s.parent < 0 ? "" : spans[static_cast<std::size_t>(s.parent)].name,
                   log->self_us(i));
      first = false;
    }
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perf
