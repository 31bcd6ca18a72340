#include "obs/sinks.h"

#include <charconv>
#include <ostream>

#include "check/contracts.h"

namespace v6::obs {

void MemorySink::emit(const Event& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(event);
}

std::vector<Event> MemorySink::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t MemorySink::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void MemorySink::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

void MemorySink::replay_to(EventSink& sink) const {
  V6_INVARIANT_MSG(&sink != this, "cannot replay a sink into itself");
  // Copy under the lock, emit outside it: the target sink takes its own
  // lock and may be slow (file I/O).
  for (const Event& event : events()) sink.emit(event);
}

void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          // Includes non-ASCII bytes: UTF-8 passes through untouched.
          out.push_back(c);
        } else {
          // Remaining control characters must be \u-escaped to stay
          // valid JSON (RFC 8259 §7).
          out += "\\u00";
          out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
          out.push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
        }
    }
  }
}

namespace {

void append_number(std::string& out, double v) {
  // Shortest form that parses back to the same double: timestamps and
  // durations survive a write -> `sos report` -> re-emit cycle bit-exact.
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
}

}  // namespace

std::string JsonLinesSink::to_json(const Event& event) {
  std::string line = "{\"ev\":\"";
  switch (event.kind) {
    case Event::Kind::kSpan: line += "span"; break;
    case Event::Kind::kCounter: line += "counter"; break;
    case Event::Kind::kGauge: line += "gauge"; break;
    case Event::Kind::kProbe: line += "probe"; break;
    case Event::Kind::kMessage: line += "message"; break;
    case Event::Kind::kSample: line += "sample"; break;
    case Event::Kind::kHist: line += "hist"; break;
    case Event::Kind::kTimer: line += "timer"; break;
  }
  line += "\"";
  if (!event.path.empty()) {
    line += ",\"path\":\"";
    append_json_escaped(line, event.path);
    line += "\"";
  }
  if (!event.detail.empty()) {
    line += ",\"detail\":\"";
    append_json_escaped(line, event.detail);
    line += "\"";
  }
  switch (event.kind) {
    case Event::Kind::kSpan:
      line += ",\"t0\":";
      append_number(line, event.at);
      line += ",\"dur\":";
      append_number(line, event.seconds);
      break;
    case Event::Kind::kCounter:
      line += ",\"value\":" + std::to_string(event.value);
      break;
    case Event::Kind::kGauge:
      line += ",\"value\":" +
              std::to_string(static_cast<std::int64_t>(event.value));
      break;
    case Event::Kind::kProbe:
      line += ",\"t0\":";
      append_number(line, event.at);
      break;
    case Event::Kind::kMessage:
      break;
    case Event::Kind::kSample:
      line += ",\"t0\":";
      append_number(line, event.at);
      line += ",\"value\":" + std::to_string(event.value);
      break;
    case Event::Kind::kHist:
      break;
    case Event::Kind::kTimer:
      line += ",\"count\":" + std::to_string(event.value);
      line += ",\"dur\":";
      append_number(line, event.seconds);
      break;
  }
  line += "}";
  return line;
}

JsonLinesSink::JsonLinesSink(std::ostream& out) : out_(&out) {}

JsonLinesSink::JsonLinesSink(const std::string& path)
    : owned_(path), out_(&owned_) {}

bool JsonLinesSink::ok() const {
  return out_ != &owned_ || static_cast<bool>(owned_);
}

void JsonLinesSink::emit(const Event& event) {
  const std::string line = to_json(event);
  std::lock_guard<std::mutex> lock(mutex_);
  *out_ << line << '\n';
}

void JsonLinesSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  out_->flush();
}

}  // namespace v6::obs
