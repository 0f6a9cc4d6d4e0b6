// The unified export API: every structured artifact the repo produces —
// aggregate RunMetrics, windowed SLO series, bench tables — leaves the
// process through one overload set,
//
//   Status Export(<thing>, Writer&, ExportFormat)
//
// so benches and tools stop hand-rolling fprintf formatting. Formats:
//
//   * kJson  - one JSON document (object or array).
//   * kJsonl - one JSON object per line.
//   * kCsv   - header row + data rows, RFC-4180 quoting.
//
// Writer is the byte sink: StringWriter for tests/round-trips, FileWriter
// for files. JsonlSink adapts a Writer into an EventSink that streams a
// run's trace events as JSONL, the trace interchange format
// tools/trace_inspect consumes (schema in DESIGN.md §10).

#ifndef CSFC_OBS_EXPORT_H_
#define CSFC_OBS_EXPORT_H_

#include <cstdio>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/slo.h"
#include "obs/trace_event.h"

namespace csfc {

struct RunMetrics;
class TablePrinter;

namespace obs {

/// Byte sink the exporters write through.
class Writer {
 public:
  virtual ~Writer() = default;
  virtual Status Append(std::string_view data) = 0;
};

/// Accumulates into a string (tests, in-memory round trips).
class StringWriter : public Writer {
 public:
  Status Append(std::string_view data) override {
    out_.append(data);
    return Status::OK();
  }
  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Writes to a file it owns. Move-only; flushes and closes on destruction.
class FileWriter : public Writer {
 public:
  static Result<FileWriter> Open(const std::string& path);
  ~FileWriter() override;

  FileWriter(FileWriter&& other) noexcept;
  FileWriter& operator=(FileWriter&& other) noexcept;
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  Status Append(std::string_view data) override;
  /// Flushes and closes; further Appends fail. Returns the first error.
  Status Close();

 private:
  explicit FileWriter(std::FILE* f, std::string path)
      : file_(f), path_(std::move(path)) {}

  std::FILE* file_ = nullptr;
  std::string path_;
};

enum class ExportFormat { kJson, kJsonl, kCsv };

/// RunMetrics -> one JSON document (kJson; kJsonl emits the same single
/// object as one line). kCsv is not meaningful for the nested aggregate
/// and returns InvalidArgument.
Status Export(const RunMetrics& metrics, Writer& writer,
              ExportFormat format = ExportFormat::kJson);

/// Windowed SLO series (service front-end) -> JSONL/CSV, one row per
/// window with the per-window wait-latency percentiles.
Status Export(const SloMetrics& slo, Writer& writer,
              ExportFormat format = ExportFormat::kCsv);

/// Bench table -> CSV (what the figure CSVs always were) or a JSON array
/// of {header: cell} row objects. kJsonl emits one row object per line.
Status Export(const TablePrinter& table, Writer& writer,
              ExportFormat format = ExportFormat::kCsv);

/// EventSink that streams every event through `writer` as JSONL. Write
/// errors are sticky: the first failure is kept and later events are
/// dropped.
///
/// Unlike SloMetrics, JsonlSink is internally locked: the underlying
/// Writer (a FILE* for FileWriter) is shared mutable state, so one
/// JsonlSink may be attached to every point of a parallel sweep and the
/// lines stay whole. The lock is uncontended in the usual one-sink-per-run
/// setup.
class JsonlSink : public EventSink {
 public:
  explicit JsonlSink(Writer& writer) : writer_(&writer) {}

  void OnEvent(const TraceEvent& event) EXCLUDES(mu_) override;

  uint64_t events_written() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return events_written_;
  }
  /// First write failure, OK while the stream is healthy. Settled once no
  /// emitter is running (copy, not reference: the field is guarded).
  Status status() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return status_;
  }

 private:
  mutable Mutex mu_;
  Writer* const writer_ PT_GUARDED_BY(mu_);
  uint64_t events_written_ GUARDED_BY(mu_) = 0;
  Status status_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace csfc

#endif  // CSFC_OBS_EXPORT_H_
