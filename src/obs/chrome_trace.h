// ChromeTraceSink: exports the event stream as a Chrome Trace Event
// Format document ({"traceEvents":[...]}) loadable in chrome://tracing
// and Perfetto (`sos ... --trace-chrome out.json`).
//
// Mapping:
//   span    -> "X" (complete) event; ts/dur in microseconds; the event
//              name is the last path segment and args.path the full path.
//              Rows (tids) are assigned per top-level path segment in
//              first-appearance order — ScanSession::sweep replays
//              per-run buffers in slot order, so each "tga:<NAME>" run
//              gets its own deterministic row.
//   probe   -> "i" (instant) event on a shared "probes" row.
//   message -> "i" (instant) event on a shared "messages" row.
//   sample  -> "C" (counter) track named by the metric, ts = virtual
//              seconds (the deterministic time axis).
//   counter/gauge/timer/hist snapshots are end-of-run totals and are not
//   exported; the JSONL trace carries those.
//
// The document is written once, when close() is called (or on
// destruction). Events emitted after close() are dropped.
#pragma once

#include <fstream>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event.h"

namespace v6::obs {

class ChromeTraceSink final : public EventSink {
 public:
  /// Writes to a borrowed stream (kept alive by the caller).
  explicit ChromeTraceSink(std::ostream& out);
  /// Opens (truncates) `path`; ok() reports whether the open succeeded.
  explicit ChromeTraceSink(const std::string& path);
  ~ChromeTraceSink() override;

  bool ok() const;
  void emit(const Event& event) override;
  void flush() override;

  /// Serializes the buffered events and writes the complete JSON
  /// document. Idempotent; implied by destruction.
  void close();

 private:
  std::string render_locked() const;

  std::ofstream owned_;
  std::ostream* out_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  bool closed_ = false;
};

}  // namespace v6::obs
