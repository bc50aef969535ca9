#include "diag/depgraph.h"

#include <algorithm>
#include <cctype>
#include <compare>
#include <limits>
#include <utility>

#include "prof/profiler.h"

namespace ms::diag {

namespace {

using Key = SpanAttrs::Key;

constexpr std::array<std::string_view, SpanAttrs::kKeys> kKeyNames = {
    "s",     "c",           "mb",       "p",    "head",  "from",
    "to",    "pc",          "B",        "n",    "op",    "calls",
    "stream", "dom",        "bytes",    "In_msg_size",   "msg_size",
    "size",  "ranks",       "Group_size", "group_size",  "nranks",
};

/// The key a token names, or kCount. The first byte and the length pick the
/// one candidate; the table confirms it.
Key key_of(std::string_view k) {
  const std::size_t n = k.size();
  Key key = Key::kCount;
  switch (k[0]) {
    case 's': key = n == 1 ? Key::kStage : n == 4 ? Key::kSize : Key::kStream; break;
    case 'c': key = n == 1 ? Key::kChunk : Key::kCalls; break;
    case 'm': key = n == 2 ? Key::kMicrobatch : Key::kMsgSize; break;
    case 'p': key = n == 1 ? Key::kPass : Key::kProducerChunk; break;
    case 'n': key = n == 1 ? Key::kGroupRanks : Key::kNranks; break;
    case 'h': key = Key::kHead; break;
    case 'f': key = Key::kFrom; break;
    case 't': key = Key::kTo; break;
    case 'B': key = Key::kBytes; break;
    case 'o': key = Key::kOp; break;
    case 'd': key = Key::kDomain; break;
    case 'b': key = Key::kBytesArg; break;
    case 'I': key = Key::kInMsgSize; break;
    case 'r': key = Key::kRanksArg; break;
    case 'G': key = Key::kGroupSizeArg; break;
    case 'g': key = Key::kGroupSizeLower; break;
    default: return Key::kCount;
  }
  return kKeyNames[static_cast<std::size_t>(key)] == k ? key : Key::kCount;
}

/// strtoll(…, 10) over `v`, which ends at its first NUL as a C string
/// would: leading whitespace, an optional sign, digits, clamped on
/// overflow. Returns how many bytes it read: 0 when no digit was read
/// (strtoll's end == start).
std::size_t read_decimal(std::string_view v, std::int64_t& out) {
  std::size_t i = 0;
  while (i < v.size() && std::isspace(static_cast<unsigned char>(v[i]))) ++i;
  const bool neg = i < v.size() && v[i] == '-';
  if (i < v.size() && (v[i] == '-' || v[i] == '+')) ++i;
  const std::size_t digits = i;
  std::uint64_t mag = 0;
  bool clamped = false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::uint64_t limit = neg ? kMax + 1 : kMax;
  for (; i < v.size() && v[i] >= '0' && v[i] <= '9'; ++i) {
    const auto d = static_cast<std::uint64_t>(v[i] - '0');
    if (mag > (limit - d) / 10) clamped = true;
    if (!clamped) mag = mag * 10 + d;
  }
  if (i == digits) return 0;
  if (clamped) mag = limit;
  out = neg ? static_cast<std::int64_t>(0 - mag) : static_cast<std::int64_t>(mag);
  return i;
}

std::string_view c_string(std::string_view v) {
  return v.substr(0, v.find('\0'));
}

}  // namespace

std::string_view SpanAttrs::name(Key key) {
  return kKeyNames[static_cast<std::size_t>(key)];
}

SpanAttrs::SpanAttrs(std::string_view detail) {
  std::size_t pos = 0;
  while (pos < detail.size()) {
    const std::size_t end = std::min(detail.find(' ', pos), detail.size());
    const std::string_view token = detail.substr(pos, end - pos);
    const std::size_t eq = token.find('=');
    if (eq != std::string_view::npos && eq > 0) {
      const Key key = key_of(token.substr(0, eq));
      if (key != Key::kCount) {
        values_[static_cast<std::size_t>(key)] = token.substr(eq + 1);
      }
    }
    pos = end + 1;
  }
}

int SpanAttrs::num(Key key, int fallback) const {
  std::int64_t v = 0;
  if (read_decimal(c_string(value(key)), v) == 0) return fallback;
  return static_cast<int>(v);
}

std::int64_t SpanAttrs::whole(Key key, std::int64_t fallback) const {
  const std::string_view text = value(key);
  if (text.empty()) return fallback;
  const std::string_view c = c_string(text);
  std::int64_t v = 0;
  // strtoll with no digit leaves its end at the start: a whole token only
  // when the C string is empty (the value began with a NUL).
  return read_decimal(c, v) == c.size() ? v : fallback;
}

std::int64_t SpanAttrs::bytes() const {
  for (Key key : {Key::kBytes, Key::kBytesArg, Key::kInMsgSize, Key::kMsgSize,
                  Key::kSize}) {
    const std::int64_t v = whole(key, -1);
    if (v >= 0) return v;
  }
  return -1;
}

int SpanAttrs::ranks() const {
  for (Key key : {Key::kGroupRanks, Key::kRanksArg, Key::kGroupSizeArg,
                  Key::kGroupSizeLower, Key::kNranks}) {
    const std::int64_t v = whole(key, -1);
    if (v >= 1) return static_cast<int>(v);
  }
  return -1;
}

const char* edge_kind_name(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kProgramOrder: return "program-order";
    case EdgeKind::kTransfer: return "transfer";
    case EdgeKind::kProduce: return "produce";
    case EdgeKind::kConsume: return "consume";
    case EdgeKind::kLocalGrad: return "local-grad";
    case EdgeKind::kData: return "data";
    case EdgeKind::kCollective: return "collective";
  }
  return "?";
}

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Numbers the distinct strings of `items` (string, node) in sorted order
/// from `first` up and writes each node's number to `ids`.
void intern(std::vector<std::pair<std::string_view, std::size_t>>& items,
            std::int64_t first, std::vector<std::int64_t>& ids) {
  std::sort(items.begin(), items.end());
  std::int64_t id = first - 1;
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (k == 0 || items[k].first != items[k - 1].first) ++id;
    ids[items[k].second] = id;
  }
}

/// `text` as the canonical decimal std::to_string writes for a value of at
/// most `max_digits` digits ("0", "17", "-3"; not "+3", "03" or "-0").
bool canonical_int(std::string_view text, std::size_t max_digits,
                   std::int64_t& out) {
  const std::size_t sign = !text.empty() && text[0] == '-' ? 1 : 0;
  const std::size_t digits = text.size() - sign;
  if (digits == 0 || digits > max_digits) return false;
  if (text[sign] == '0' && (digits > 1 || sign == 1)) return false;
  for (std::size_t i = sign; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
  }
  std::int64_t v = 0;
  for (std::size_t i = sign; i < text.size(); ++i) v = v * 10 + (text[i] - '0');
  out = sign == 1 ? -v : v;
  return true;
}

/// A node keyed by integers: entries sort by key, then node.
template <class K>
struct Keyed {
  K key;
  std::size_t node;
  auto operator<=>(const Keyed&) const = default;
};

/// Sorts `v` and keeps the last node of each key — what assigning every
/// node in index order into a std::map would keep.
template <class K>
void sort_last_wins(std::vector<Keyed<K>>& v) {
  std::sort(v.begin(), v.end());
  std::size_t out = 0;
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (k + 1 < v.size() && v[k + 1].key == v[k].key) continue;
    v[out++] = v[k];
  }
  v.resize(out);
}

/// Index of the entry with `key` in a sort_last_wins vector, or kNone.
template <class K>
std::size_t find_key(const std::vector<Keyed<K>>& v, const K& key) {
  const auto it = std::lower_bound(
      v.begin(), v.end(), key,
      [](const Keyed<K>& e, const K& k) { return e.key < k; });
  return it != v.end() && it->key == key
             ? static_cast<std::size_t>(it - v.begin())
             : kNone;
}

// Pass ids: "f" and "b" are fixed, any other pass string is interned after.
constexpr std::int64_t kFwd = 0;
constexpr std::int64_t kBwd = 1;

struct OpKey {  // compute op: (stage, chunk, microbatch, pass)
  int s, c, mb;
  std::int64_t p;
  auto operator<=>(const OpKey&) const = default;
};
struct XferKey {  // transfer: (from, to, consumer chunk, microbatch, pass)
  int from, to, c, mb;
  std::int64_t p;
  auto operator<=>(const XferKey&) const = default;
};
struct StageChunk {
  int s, c;
  auto operator<=>(const StageChunk&) const = default;
};

/// First forward (earliest start) and last backward (latest end) of one
/// group of compute ops; ties break to the smaller node.
struct Bounds {
  std::size_t first_fwd = kNone;
  std::size_t last_bwd = kNone;
};

enum class Role : std::uint8_t {
  kOther, kCompute, kSend, kRecv, kOptimizer, kData, kAllGather,
  kReduceScatter,
};

Role role_of(const std::string& name) {
  if (name == "fwd" || name == "bwd") return Role::kCompute;
  if (name == "send") return Role::kSend;
  if (name == "recv" || name == "recv-wait") return Role::kRecv;
  if (name == "optimizer") return Role::kOptimizer;
  if (name == "data-load") return Role::kData;
  if (name == "dp-allgather") return Role::kAllGather;
  if (name == "dp-reducescatter") return Role::kReduceScatter;
  return Role::kOther;
}

}  // namespace

DepGraph DepGraph::build(const std::vector<TraceSpan>& spans) {
  MS_PROF_SCOPE("diag.depgraph");
  DepGraph g;
  g.spans_ = &spans;
  const std::size_t n = spans.size();
  g.attrs_.reserve(n);
  for (const auto& s : spans) g.attrs_.emplace_back(s.detail);
  const auto& at = g.attrs_;

  std::vector<DepEdge> found;  // in discovery order
  auto add = [&](std::size_t from, std::size_t to, EdgeKind kind) {
    if (from != to) found.push_back({from, to, kind});
  };

  // ---- program order within each hardware queue -------------------------
  // Lane: the `stream=` attribute when present (the engine's per-stage
  // compute/send/recv/dp queues), otherwise "rank:<rank>" — spans recorded
  // without structured details still serialize per rank. Each distinct
  // lane string maps to one integer key: a canonical decimal stream to
  // (0, value), a rank lane (or a stream spelled like one) to (1, rank),
  // any other stream to (2, its index among those names, sorted).
  struct LaneItem {
    int kind;
    std::int64_t id;
    TimeNs start, end;
    std::size_t node;
    auto operator<=>(const LaneItem&) const = default;
  };
  std::vector<LaneItem> lanes(n);
  std::vector<std::int64_t> named(n);
  std::vector<std::pair<std::string_view, std::size_t>> names;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view stream = at[i].text(Key::kStream);
    std::int64_t v = 0;
    int kind = 1;
    if (stream.empty()) {
      v = spans[i].rank;
    } else if (canonical_int(stream, 9, v)) {
      kind = 0;
    } else if (!(stream.substr(0, 5) == "rank:" &&
                 canonical_int(stream.substr(5), 10, v) &&
                 v >= std::numeric_limits<int>::min() &&
                 v <= std::numeric_limits<int>::max())) {
      kind = 2;
      names.emplace_back(stream, i);
    }
    lanes[i] = {kind, v, spans[i].start, spans[i].end, i};
  }
  intern(names, 0, named);
  for (const auto& [name, i] : names) lanes[i].id = named[i];
  std::sort(lanes.begin(), lanes.end());
  for (std::size_t k = 1; k < n; ++k) {
    if (lanes[k].kind == lanes[k - 1].kind && lanes[k].id == lanes[k - 1].id) {
      add(lanes[k - 1].node, lanes[k].node, EdgeKind::kProgramOrder);
    }
  }

  // ---- attribute indices ------------------------------------------------
  std::vector<Role> role(n);
  std::vector<std::int64_t> pass(n, kFwd);
  names.clear();
  for (std::size_t i = 0; i < n; ++i) {
    role[i] = role_of(spans[i].name);
    if (role[i] != Role::kCompute && role[i] != Role::kSend &&
        role[i] != Role::kRecv) {
      continue;
    }
    const std::string_view p = at[i].text(Key::kPass);
    if (p == "b") pass[i] = kBwd;
    else if (p != "f") names.emplace_back(p, i);
  }
  intern(names, kBwd + 1, pass);

  std::vector<Keyed<OpKey>> compute;
  std::vector<Keyed<XferKey>> sends, recvs;
  std::vector<Keyed<int>> optimizers;  // stage -> node
  std::vector<std::size_t> data_nodes, ag_nodes, rs_nodes;
  for (std::size_t i = 0; i < n; ++i) {
    const SpanAttrs& a = at[i];
    switch (role[i]) {
      case Role::kCompute:
        compute.push_back({{a.num(Key::kStage), a.num(Key::kChunk),
                            a.num(Key::kMicrobatch), pass[i]},
                           i});
        break;
      case Role::kSend:
      case Role::kRecv:
        (role[i] == Role::kSend ? sends : recvs)
            .push_back({{a.num(Key::kFrom), a.num(Key::kTo),
                         a.num(Key::kChunk), a.num(Key::kMicrobatch), pass[i]},
                        i});
        break;
      case Role::kOptimizer:
        optimizers.push_back({a.num(Key::kStage, spans[i].rank), i});
        break;
      case Role::kData: data_nodes.push_back(i); break;
      case Role::kAllGather: ag_nodes.push_back(i); break;
      case Role::kReduceScatter: rs_nodes.push_back(i); break;
      case Role::kOther: break;
    }
  }
  sort_last_wins(compute);
  sort_last_wins(sends);
  sort_last_wins(recvs);
  sort_last_wins(optimizers);

  // ---- transfer edges ---------------------------------------------------
  std::vector<char> fed(compute.size(), 0);  // has an inbound recv
  for (const auto& [key, snd] : sends) {
    // send -> recv of the same transfer.
    const std::size_t r = find_key(recvs, key);
    if (r != kNone) add(snd, recvs[r].node, EdgeKind::kTransfer);
    // producing compute -> send (producer chunk rides in `pc`).
    const int pc = at[snd].num(Key::kProducerChunk, key.c);
    const std::size_t c = find_key(compute, OpKey{key.from, pc, key.mb, key.p});
    if (c != kNone) add(compute[c].node, snd, EdgeKind::kProduce);
  }
  for (const auto& [key, rcv] : recvs) {
    const std::size_t c = find_key(compute, OpKey{key.to, key.c, key.mb, key.p});
    if (c == kNone) continue;
    fed[c] = 1;
    add(rcv, compute[c].node, EdgeKind::kConsume);
  }

  // ---- local edges for computes with no inbound transfer ----------------
  for (std::size_t k = 0; k < compute.size(); ++k) {
    if (fed[k] != 0) continue;
    const auto& [key, node] = compute[k];
    if (key.p == kBwd) {
      // Last-stage backward starts from the locally computed loss.
      const std::size_t f = find_key(compute, OpKey{key.s, key.c, key.mb, kFwd});
      if (f != kNone) add(compute[f].node, node, EdgeKind::kLocalGrad);
    } else {
      // First-stage forward consumes the data pipeline.
      for (std::size_t d : data_nodes) add(d, node, EdgeKind::kData);
    }
  }

  // ---- DP collective edges ----------------------------------------------
  // ag(stage, chunk) gates the first forward of that chunk on that stage;
  // a bucketed ag (no chunk attr) gates every chunk and itself waits on the
  // data pipeline (mirrors the engine's bucketed barrier). One pass over
  // the compute ops finds each stage's and each (stage, chunk)'s bounds.
  std::vector<Keyed<int>> by_stage;                // stage -> bounds slot
  std::vector<Keyed<StageChunk>> by_chunk;         // (stage, chunk) -> slot
  std::vector<Bounds> bounds;
  auto widen = [&](Bounds& b, std::size_t node, std::int64_t p) {
    const TraceSpan& sp = spans[node];
    if (p == kFwd && (b.first_fwd == kNone ||
                      std::pair(sp.start, node) <
                          std::pair(spans[b.first_fwd].start, b.first_fwd))) {
      b.first_fwd = node;
    }
    if (p == kBwd && (b.last_bwd == kNone ||
                      sp.end > spans[b.last_bwd].end ||
                      (sp.end == spans[b.last_bwd].end && node < b.last_bwd))) {
      b.last_bwd = node;
    }
  };
  for (const auto& [key, node] : compute) {  // sorted by stage, then chunk
    if (by_stage.empty() || by_stage.back().key != key.s) {
      by_stage.push_back({key.s, bounds.size()});
      bounds.emplace_back();
    }
    widen(bounds[by_stage.back().node], node, key.p);
    if (by_chunk.empty() || by_chunk.back().key != StageChunk{key.s, key.c}) {
      by_chunk.push_back({{key.s, key.c}, bounds.size()});
      bounds.emplace_back();
    }
    widen(bounds[by_chunk.back().node], node, key.p);
  }
  auto bounds_of = [&](int s, int c) -> const Bounds* {
    const std::size_t k =
        c >= 0 ? find_key(by_chunk, StageChunk{s, c}) : find_key(by_stage, s);
    if (k == kNone) return nullptr;
    return &bounds[c >= 0 ? by_chunk[k].node : by_stage[k].node];
  };
  for (std::size_t ag : ag_nodes) {
    const int s = at[ag].num(Key::kStage, spans[ag].rank);
    const int c = at[ag].num(Key::kChunk);
    const Bounds* b = bounds_of(s, c);
    if (b != nullptr && b->first_fwd != kNone) {
      add(ag, b->first_fwd, EdgeKind::kCollective);
    }
    if (c < 0) {
      for (std::size_t d : data_nodes) add(d, ag, EdgeKind::kData);
    }
  }
  for (std::size_t rs : rs_nodes) {
    const int s = at[rs].num(Key::kStage, spans[rs].rank);
    const int c = at[rs].num(Key::kChunk);
    const Bounds* b = bounds_of(s, c);
    if (b != nullptr && b->last_bwd != kNone) {
      add(b->last_bwd, rs, EdgeKind::kCollective);
    }
    const std::size_t o = find_key(optimizers, s);
    if (o != kNone) add(rs, optimizers[o].node, EdgeKind::kCollective);
  }

  // ---- group edges by target, keeping discovery order per target --------
  g.pred_begin_.assign(n + 1, 0);
  for (const DepEdge& e : found) ++g.pred_begin_[e.to + 1];
  for (std::size_t i = 0; i < n; ++i) g.pred_begin_[i + 1] += g.pred_begin_[i];
  g.edges_.resize(found.size());
  std::vector<std::size_t> fill(g.pred_begin_.begin(), g.pred_begin_.end() - 1);
  for (const DepEdge& e : found) g.edges_[fill[e.to]++] = e;
  return g;
}

std::size_t DepGraph::sink() const {
  const auto& spans = *spans_;
  std::size_t best = 0;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].end > spans[best].end) best = i;
  }
  return best;
}

TimeNs DepGraph::makespan() const {
  TimeNs m = 0;
  for (const auto& s : *spans_) m = std::max(m, s.end);
  return m;
}

}  // namespace ms::diag
