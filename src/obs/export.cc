#include "obs/export.h"

#include <utility>

#include "exp/table.h"
#include "obs/json.h"
#include "stats/metrics.h"

namespace csfc {
namespace obs {

// --------------------------------------------------------------------------
// Writers
// --------------------------------------------------------------------------

Result<FileWriter> FileWriter::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open for write: " + path);
  return FileWriter(f, path);
}

FileWriter::~FileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

FileWriter::FileWriter(FileWriter&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      path_(std::move(other.path_)) {}

FileWriter& FileWriter::operator=(FileWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = std::exchange(other.file_, nullptr);
    path_ = std::move(other.path_);
  }
  return *this;
}

Status FileWriter::Append(std::string_view data) {
  if (file_ == nullptr) return Status::FailedPrecondition("writer is closed");
  if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
    return Status::IoError("write failed: " + path_);
  }
  return Status::OK();
}

Status FileWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  const bool ok = std::fflush(file_) == 0;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!ok || !closed) return Status::IoError("close failed: " + path_);
  return Status::OK();
}

// --------------------------------------------------------------------------
// Trace events
// --------------------------------------------------------------------------

namespace {

/// One trace event as a single-line JSON object (no trailing newline):
/// the JSONL schema unit JsonlSink writes.
std::string TraceEventToJson(const TraceEvent& e) {
  JsonWriter w;
  w.BeginObject();
  w.Field("ev", TraceEventKindName(e.kind));
  w.Field("t_ms", SimToMs(e.t));
  if (e.has_request()) w.Field("id", e.id);
  switch (e.kind) {
    case TraceEventKind::kArrival:
      w.Field("cyl", e.cylinder);
      w.Field("level", e.level);
      if (e.deadline != kNoDeadline) w.Field("deadline_ms", SimToMs(e.deadline));
      break;
    case TraceEventKind::kCharacterize:
      w.Field("v1", e.v1);
      w.Field("v2", e.v2);
      w.Field("vc", e.vc);
      if (e.rekey) w.Field("rekey", true);
      break;
    case TraceEventKind::kEnqueue:
    case TraceEventKind::kQueueSwap:
      w.Field("qd", e.queue_depth);
      break;
    case TraceEventKind::kPreempt:
    case TraceEventKind::kPromote:
      w.Field("vc", e.vc);
      w.Field("window", e.window);
      break;
    case TraceEventKind::kWindowReset:
      w.Field("window", e.window);
      break;
    case TraceEventKind::kDispatch:
      w.Field("cyl", e.cylinder);
      w.Field("qd", e.queue_depth);
      break;
    case TraceEventKind::kCompletion:
      w.Field("seek_ms", e.seek_ms);
      w.Field("service_ms", e.service_ms);
      w.Field("response_ms", e.response_ms);
      w.Field("missed", e.missed);
      break;
    case TraceEventKind::kDeadlineMiss:
      break;
    case TraceEventKind::kIngest:
      w.Field("stream", e.stream);
      break;
    case TraceEventKind::kAdmit:
      w.Field("qd", e.queue_depth);
      break;
    case TraceEventKind::kReject:
      w.Field("reason", RejectReasonName(e.reject));
      break;
    case TraceEventKind::kDrain:
      w.Field("wait_ms", e.wait_ms);
      w.Field("qd", e.queue_depth);
      break;
  }
  w.EndObject();
  return w.Take();
}

std::string CsvQuote(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

Status AppendCsvRow(Writer& writer, const std::vector<std::string>& cells) {
  std::string line;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i) line += ',';
    line += CsvQuote(cells[i]);
  }
  line += '\n';
  return writer.Append(line);
}

std::string Num(double v) {
  JsonWriter w;
  w.Value(v);
  return w.Take();
}

}  // namespace

Status Export(const RunMetrics& metrics, Writer& writer, ExportFormat format) {
  if (format == ExportFormat::kCsv) {
    return Status::InvalidArgument(
        "RunMetrics is a nested aggregate; export it as JSON");
  }
  if (Status s = writer.Append(metrics.ToJson()); !s.ok()) return s;
  return writer.Append("\n");
}

Status Export(const SloMetrics& slo, Writer& writer, ExportFormat format) {
  const std::vector<SloWindowRow> rows = slo.Rows();
  if (format == ExportFormat::kCsv) {
    if (Status s = AppendCsvRow(
            writer, {"start_ms", "offered", "admitted", "rejected",
                     "rejected_rate", "rejected_load", "rejected_ring_full",
                     "shed_rate", "drains", "p50_ms", "p99_ms", "p999_ms",
                     "max_ms"});
        !s.ok()) {
      return s;
    }
    for (const SloWindowRow& r : rows) {
      if (Status s = AppendCsvRow(
              writer, {Num(r.start_ms), std::to_string(r.offered),
                       std::to_string(r.admitted), std::to_string(r.rejected),
                       std::to_string(r.rejected_rate),
                       std::to_string(r.rejected_load),
                       std::to_string(r.rejected_ring_full), Num(r.shed_rate()),
                       std::to_string(r.drains), Num(r.p50_ms), Num(r.p99_ms),
                       Num(r.p999_ms), Num(r.max_ms)});
          !s.ok()) {
        return s;
      }
    }
    return Status::OK();
  }
  const bool jsonl = format == ExportFormat::kJsonl;
  JsonWriter w;
  if (!jsonl) w.BeginArray();
  for (const SloWindowRow& r : rows) {
    w.BeginObject();
    w.Field("start_ms", r.start_ms);
    w.Field("offered", r.offered);
    w.Field("admitted", r.admitted);
    w.Field("rejected", r.rejected);
    w.Field("rejected_rate", r.rejected_rate);
    w.Field("rejected_load", r.rejected_load);
    w.Field("rejected_ring_full", r.rejected_ring_full);
    w.Field("shed_rate", r.shed_rate());
    w.Field("drains", r.drains);
    w.Field("p50_ms", r.p50_ms);
    w.Field("p99_ms", r.p99_ms);
    w.Field("p999_ms", r.p999_ms);
    w.Field("max_ms", r.max_ms);
    w.EndObject();
    if (jsonl) {
      if (Status s = writer.Append(w.Take()); !s.ok()) return s;
      if (Status s = writer.Append("\n"); !s.ok()) return s;
      w = JsonWriter();
    }
  }
  if (jsonl) return Status::OK();
  w.EndArray();
  if (Status s = writer.Append(w.Take()); !s.ok()) return s;
  return writer.Append("\n");
}

Status Export(const TablePrinter& table, Writer& writer, ExportFormat format) {
  const std::vector<std::string>& headers = table.headers();
  if (format == ExportFormat::kCsv) {
    if (Status s = AppendCsvRow(writer, headers); !s.ok()) return s;
    for (const std::vector<std::string>& row : table.rows()) {
      if (Status s = AppendCsvRow(writer, row); !s.ok()) return s;
    }
    return Status::OK();
  }
  const bool jsonl = format == ExportFormat::kJsonl;
  JsonWriter w;
  if (!jsonl) w.BeginArray();
  for (const std::vector<std::string>& row : table.rows()) {
    w.BeginObject();
    for (size_t c = 0; c < headers.size() && c < row.size(); ++c) {
      w.Field(headers[c], row[c]);
    }
    w.EndObject();
    if (jsonl) {
      if (Status s = writer.Append(w.Take()); !s.ok()) return s;
      if (Status s = writer.Append("\n"); !s.ok()) return s;
      w = JsonWriter();
    }
  }
  if (jsonl) return Status::OK();
  w.EndArray();
  if (Status s = writer.Append(w.Take()); !s.ok()) return s;
  return writer.Append("\n");
}

void JsonlSink::OnEvent(const TraceEvent& event) {
  MutexLock lock(mu_);
  if (!status_.ok()) return;
  Status s = writer_->Append(TraceEventToJson(event));
  if (s.ok()) s = writer_->Append("\n");
  if (!s.ok()) {
    status_ = std::move(s);
    return;
  }
  ++events_written_;
}

}  // namespace obs
}  // namespace csfc
