// Trace-artifact IO for the diagnosis toolchain.
//
// Runs persist their evidence as JSONL: one span per line (the same
// format telemetry::jsonl_spans emits) or a flight-recorder dump. msdiag
// and the tests load artifacts through these helpers, so a trace captured
// by a bench, a chaos campaign, or the nightly CI job all round-trip into
// the analyzer without conversion.
#pragma once

#include <string>
#include <vector>

#include "diag/timeline.h"

namespace ms::diag {

/// Writes `content` to `path`, creating parent directories. Returns false
/// on IO failure.
bool write_text_file(const std::string& path, const std::string& content);

/// Reads the whole file. Returns false when unreadable.
bool read_text_file(const std::string& path, std::string& out);

/// Parses a span JSONL artifact in the format telemetry::jsonl_spans
/// writes (`{"type":"span","rank":..,"name":..,"tag":..,"start_ns":..,
/// "end_ns":..,"detail":..}`, one per line).
///
/// One forward pass over `text` with json::Scanner, the lexer json::parse
/// uses: each line must be one JSON object (empty lines are skipped, a
/// trailing '\r' is whitespace), and the fixed keys fill TraceSpan fields
/// directly while any other value is checked and skipped. A repeated key
/// keeps its last value; a `rank` or time that is not a number reads 0, a
/// `name`, `tag` or `detail` that is not a string reads "". Lines whose
/// `type` is not the string "span" (metrics mixed into the same export)
/// are skipped. A span whose `rank` does not fit an int, or whose
/// `start_ns`/`end_ns` does not fit TimeNs (NaN, Infinity, out of range),
/// fails the load like malformed JSON does. On failure `out` is untouched
/// and `error` (if non-null) says where, e.g. "line 3: malformed JSON at
/// byte 17" or "line 2: start_ns out of range at byte 58".
bool parse_trace_jsonl(const std::string& text, std::vector<TraceSpan>& out,
                       std::string* error = nullptr);

}  // namespace ms::diag
