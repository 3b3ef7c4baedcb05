#include "obs/report.h"

#include <cmath>

#include "common/table.h"
#include "obs/json.h"

namespace alphasort {
namespace obs {

namespace {

// ---------------------------------------------------------------------
// JSON building. The document is assembled by append; keys stay in a
// fixed order so diffs of two reports line up.

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  AppendJsonEscaped(s, &out);
  out += "\"";
  return out;
}

std::string U64(uint64_t v) {
  return StrFormat("%llu", static_cast<unsigned long long>(v));
}

void AppendIoStats(const char* key, const IoLatencyStats& io,
                   std::string* out) {
  *out += StrFormat(
      "\"%s\":{\"ops\":%s,\"bytes\":%s,\"p50_us\":%s,\"p95_us\":%s,"
      "\"p99_us\":%s,\"max_us\":%s}",
      key, U64(io.ops).c_str(), U64(io.bytes).c_str(),
      JsonNumber(io.p50_us).c_str(), JsonNumber(io.p95_us).c_str(),
      JsonNumber(io.p99_us).c_str(), JsonNumber(io.max_us).c_str());
}

void AppendSortStats(const char* key, const SortStats& s,
                     std::string* out) {
  *out += StrFormat(
      "\"%s\":{\"compares\":%s,\"exchanges\":%s,\"bytes_moved\":%s,"
      "\"tie_breaks\":%s}",
      key, U64(s.compares).c_str(), U64(s.exchanges).c_str(),
      U64(s.bytes_moved).c_str(), U64(s.tie_breaks).c_str());
}

void AppendRegistry(const RegistrySnapshot& reg, std::string* out) {
  *out += "\"registry\":{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : reg.counters) {
    if (value == 0) continue;
    if (!first) *out += ",";
    first = false;
    *out += Quoted(name) + ":" + U64(value);
  }
  *out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, snap] : reg.histograms) {
    if (snap.count == 0) continue;
    if (!first) *out += ",";
    first = false;
    *out += Quoted(name);
    *out += StrFormat(
        ":{\"count\":%s,\"mean\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,"
        "\"max\":%s}",
        U64(snap.count).c_str(), JsonNumber(snap.Mean()).c_str(),
        JsonNumber(snap.Percentile(50)).c_str(),
        JsonNumber(snap.Percentile(95)).c_str(),
        JsonNumber(snap.Percentile(99)).c_str(), U64(snap.max).c_str());
  }
  *out += "}";
  // Gauges (instantaneous levels, e.g. svc.* service state). The key is
  // always present — schema 1.1 — so consumers can index registry.gauges
  // unconditionally; zero-valued gauges are still elided from the map.
  *out += ",\"gauges\":{";
  first = true;
  for (const auto& [name, value] : reg.gauges) {
    if (value == 0) continue;
    if (!first) *out += ",";
    first = false;
    *out += Quoted(name) +
            StrFormat(":%lld", static_cast<long long>(value));
  }
  *out += "}}";
}

void AppendPerf(const PerfReport& perf, std::string* out) {
  *out += StrFormat("\"hardware_counters\":{\"attempted\":%s,"
                    "\"available\":%s,\"unavailable_reason\":%s,"
                    "\"regions\":{",
                    perf.attempted ? "true" : "false",
                    perf.AnyAvailable() ? "true" : "false",
                    Quoted(perf.UnavailableReason()).c_str());
  bool first = true;
  for (const auto& [name, d] : perf.regions) {
    if (!first) *out += ",";
    first = false;
    *out += Quoted(name);
    *out += StrFormat(
        ":{\"available\":%s,\"samples\":%s,\"cycles\":%s,"
        "\"instructions\":%s,\"cache_references\":%s,"
        "\"cache_misses\":%s,\"branch_misses\":%s,\"ipc\":%s,"
        "\"cache_miss_rate\":%s,\"running_ratio\":%s}",
        d.available ? "true" : "false", U64(d.samples).c_str(),
        JsonNumber(d.cycles).c_str(), JsonNumber(d.instructions).c_str(),
        JsonNumber(d.cache_references).c_str(),
        JsonNumber(d.cache_misses).c_str(),
        JsonNumber(d.branch_misses).c_str(), JsonNumber(d.Ipc()).c_str(),
        JsonNumber(d.CacheMissRate()).c_str(),
        JsonNumber(d.running_ratio).c_str());
  }
  *out += "}}";
}

// ---------------------------------------------------------------------
// Validation helpers.

Status Missing(const char* what) {
  return Status::Corruption(
      StrFormat("report missing or mistyped field: %s", what));
}

const JsonValue* RequireObject(const JsonValue& parent, const char* key,
                               Status* status) {
  const JsonValue* v = parent.Find(key);
  if (v == nullptr || !v->IsObject()) {
    if (status->ok()) *status = Missing(key);
    return nullptr;
  }
  return v;
}

bool RequireNumbers(const JsonValue& obj, const char* context,
                    std::initializer_list<const char*> keys,
                    Status* status) {
  for (const char* key : keys) {
    const JsonValue* v = obj.Find(key);
    if (v == nullptr || !v->IsNumber()) {
      if (status->ok()) {
        *status = Missing(StrFormat("%s.%s", context, key).c_str());
      }
      return false;
    }
  }
  return true;
}

Status CheckEnvelope(const JsonValue& root, const char* kind,
                     int version) {
  if (!root.IsObject()) {
    return Status::Corruption("report is not a JSON object");
  }
  const JsonValue* v = root.Find("schema_version");
  if (v == nullptr || !v->IsNumber()) return Missing("schema_version");
  if (static_cast<int>(v->number_value) != version) {
    return Status::Corruption(StrFormat(
        "unsupported schema_version %g (this reader understands %d)",
        v->number_value, version));
  }
  const JsonValue* k = root.Find("kind");
  if (k == nullptr || !k->IsString()) return Missing("kind");
  if (k->string_value != kind) {
    return Status::Corruption(StrFormat("kind \"%s\" is not \"%s\"",
                                        k->string_value.c_str(), kind));
  }
  return Status::OK();
}

}  // namespace

std::string SortReport::ToJson() const {
  const SortMetrics& m = metrics;
  const SortThroughput t = m.Throughput();
  std::string out = "{";
  out += StrFormat("\"schema_version\":%d,\"schema_minor\":%d,"
                   "\"kind\":%s,\"tool\":%s,\"config\":%s,",
                   kSchemaVersion, kSchemaVersionMinor,
                   Quoted(kKind).c_str(), Quoted(tool).c_str(),
                   Quoted(config).c_str());
  out += StrFormat(
      "\"records\":%s,\"bytes_in\":%s,\"bytes_out\":%s,\"passes\":%d,"
      "\"runs\":%s,\"merge_ranges\":%s,",
      U64(m.num_records).c_str(), U64(m.bytes_in).c_str(),
      U64(m.bytes_out).c_str(), m.passes, U64(m.num_runs).c_str(),
      U64(m.merge_ranges).c_str());
  out += StrFormat(
      "\"phases_s\":{\"startup\":%s,\"read_quicksort\":%s,"
      "\"last_run\":%s,\"merge_gather_write\":%s,\"close\":%s,"
      "\"phase_sum\":%s,\"total\":%s},",
      JsonNumber(m.startup_s).c_str(), JsonNumber(m.read_phase_s).c_str(),
      JsonNumber(m.last_run_s).c_str(),
      JsonNumber(m.merge_phase_s).c_str(), JsonNumber(m.close_s).c_str(),
      JsonNumber(m.PhaseSum()).c_str(), JsonNumber(m.total_s).c_str());
  out += StrFormat("\"throughput\":{\"mb_per_s\":%s,\"records_per_s\":%s},",
                   JsonNumber(t.mb_per_s).c_str(),
                   JsonNumber(t.records_per_s).c_str());
  out += "\"io\":{";
  AppendIoStats("reads", m.read_io, &out);
  out += ",";
  AppendIoStats("writes", m.write_io, &out);
  out += "},\"sort_stats\":{";
  AppendSortStats("quicksort", m.quicksort_stats, &out);
  out += ",";
  AppendSortStats("merge", m.merge_stats, &out);
  out += "},";
  out += StrFormat(
      "\"integrity\":{\"output_crc32c\":\"%08x\","
      "\"runs_checksum_verified\":%s,\"scratch_bytes_written\":%s,"
      "\"io_retries\":%s,\"io_retries_recovered\":%s,"
      "\"io_retries_exhausted\":%s},",
      m.output_crc32c, U64(m.runs_checksum_verified).c_str(),
      U64(m.scratch_bytes_written).c_str(), U64(m.io_retries).c_str(),
      U64(m.io_retries_recovered).c_str(),
      U64(m.io_retries_exhausted).c_str());
  out += StrFormat("\"memory\":{\"record_block_huge_page_bytes\":%s},",
                   m.record_block_huge_page_bytes
                       ? U64(*m.record_block_huge_page_bytes).c_str()
                       : "\"unknown\"");
  AppendRegistry(m.registry_delta, &out);
  out += ",";
  AppendPerf(m.perf, &out);
  out += "}";
  return out;
}

std::string SortReport::ToText() const {
  const SortMetrics& m = metrics;
  std::string out;
  out += StrFormat("=== AlphaSort report: %s ===\n", tool.c_str());
  if (!config.empty()) out += StrFormat("config: %s\n", config.c_str());
  out += StrFormat(
      "records %llu (%.1f MB in, %.1f MB out), %d pass(es), %llu run(s), "
      "%llu merge range(s)\n\n",
      static_cast<unsigned long long>(m.num_records), m.bytes_in / 1e6,
      m.bytes_out / 1e6, m.passes,
      static_cast<unsigned long long>(m.num_runs),
      static_cast<unsigned long long>(m.merge_ranges));

  // Figure 7's table: one row per phase with its share of the total.
  const double total = m.total_s > 0 ? m.total_s : m.PhaseSum();
  TextTable phases({"phase", "seconds", "% of total"});
  const std::pair<const char*, double> rows[] = {
      {"startup", m.startup_s},
      {"read + quicksort (overlap)", m.read_phase_s},
      {"last run", m.last_run_s},
      {"merge + gather + write", m.merge_phase_s},
      {"close", m.close_s},
  };
  for (const auto& [label, seconds] : rows) {
    phases.AddRow({label, StrFormat("%.4f", seconds),
                   total > 0 ? StrFormat("%.1f", 100 * seconds / total)
                             : "-"});
  }
  phases.AddRow({"total", StrFormat("%.4f", m.total_s),
                 StrFormat("(phase sum %.4f)", m.PhaseSum())});
  out += phases.ToString();
  out += "\n";

  const SortThroughput t = m.Throughput();
  if (t.mb_per_s > 0) {
    out += StrFormat("throughput: %.1f MB/s, %.0f records/s\n", t.mb_per_s,
                     t.records_per_s);
  }
  if (m.read_io.Valid()) {
    out += StrFormat("io reads : %llu ops, p50 %.0f us, p99 %.0f us\n",
                     static_cast<unsigned long long>(m.read_io.ops),
                     m.read_io.p50_us, m.read_io.p99_us);
  }
  if (m.write_io.Valid()) {
    out += StrFormat("io writes: %llu ops, p50 %.0f us, p99 %.0f us\n",
                     static_cast<unsigned long long>(m.write_io.ops),
                     m.write_io.p50_us, m.write_io.p99_us);
  }

  if (!m.registry_delta.Empty()) {
    out += "\nregistry delta (this run only):\n";
    out += m.registry_delta.ToString();
  }

  out += "\nhardware counters";
  if (!m.perf.attempted) {
    out += ": not collected\n";
  } else if (!m.perf.AnyAvailable()) {
    const std::string reason = m.perf.UnavailableReason();
    out += StrFormat(": unavailable (%s)\n",
                     reason.empty() ? "unknown" : reason.c_str());
  } else {
    out += " (scaled for PMU multiplexing; regions overlap):\n";
    TextTable hw({"region", "cycles", "instr", "IPC", "cache refs",
                  "cache miss", "miss%", "br miss", "samples"});
    for (const auto& [name, d] : m.perf.regions) {
      if (!d.available) continue;
      hw.AddRow({name, StrFormat("%.3g", d.cycles),
                 StrFormat("%.3g", d.instructions),
                 StrFormat("%.2f", d.Ipc()),
                 StrFormat("%.3g", d.cache_references),
                 StrFormat("%.3g", d.cache_misses),
                 StrFormat("%.1f", 100 * d.CacheMissRate()),
                 StrFormat("%.3g", d.branch_misses),
                 StrFormat("%llu",
                           static_cast<unsigned long long>(d.samples))});
    }
    out += hw.ToString();
  }
  return out;
}

Status ValidateSortReportJson(const std::string& json) {
  JsonValue root;
  ALPHASORT_RETURN_IF_ERROR(ParseJson(json, &root));
  ALPHASORT_RETURN_IF_ERROR(
      CheckEnvelope(root, SortReport::kKind, SortReport::kSchemaVersion));

  Status status = Status::OK();
  const JsonValue* tool = root.Find("tool");
  if (tool == nullptr || !tool->IsString()) return Missing("tool");
  RequireNumbers(root, "report",
                 {"records", "bytes_in", "bytes_out", "passes", "runs"},
                 &status);

  if (const JsonValue* phases = RequireObject(root, "phases_s", &status)) {
    if (RequireNumbers(*phases, "phases_s",
                       {"startup", "read_quicksort", "last_run",
                        "merge_gather_write", "close", "phase_sum",
                        "total"},
                       &status)) {
      // Figure 7 discipline: the laps must account for the elapsed
      // time. Phases are laps of one serial timer, so they sum to the
      // total up to timer noise; the tolerance is loose enough for tiny
      // smoke sorts where a scheduler hiccup is a visible fraction.
      const double total = phases->Find("total")->number_value;
      const double sum = phases->Find("phase_sum")->number_value;
      if (total > 0 && std::abs(total - sum) > 0.10 * total + 0.005) {
        return Status::Corruption(StrFormat(
            "phase breakdown does not account for the total: phase_sum "
            "%.4f vs total %.4f — a phase went untimed",
            sum, total));
      }
    }
  }
  if (const JsonValue* tp = RequireObject(root, "throughput", &status)) {
    RequireNumbers(*tp, "throughput", {"mb_per_s", "records_per_s"},
                   &status);
  }
  if (const JsonValue* io = RequireObject(root, "io", &status)) {
    for (const char* dir : {"reads", "writes"}) {
      if (const JsonValue* mode = RequireObject(*io, dir, &status)) {
        RequireNumbers(*mode, dir,
                       {"ops", "bytes", "p50_us", "p95_us", "p99_us",
                        "max_us"},
                       &status);
      }
    }
  }
  // Since schema 1.3: the record block's huge-page-backed bytes, a
  // number or the string "unknown" (never 0 standing in for unknown).
  const JsonValue* minor = root.Find("schema_minor");
  if (minor != nullptr && minor->IsNumber() && minor->number_value >= 3) {
    if (const JsonValue* mem = RequireObject(root, "memory", &status)) {
      const JsonValue* huge = mem->Find("record_block_huge_page_bytes");
      if (huge == nullptr ||
          !(huge->IsNumber() ||
            (huge->IsString() && huge->string_value == "unknown"))) {
        return Missing("memory.record_block_huge_page_bytes");
      }
    }
  }
  if (const JsonValue* reg = RequireObject(root, "registry", &status)) {
    // Since schema 1.1 the gauges key is always present, even when no
    // gauge was ever set; consumers index it unconditionally.
    RequireObject(*reg, "gauges", &status);
  }
  if (const JsonValue* hw =
          RequireObject(root, "hardware_counters", &status)) {
    const JsonValue* available = hw->Find("available");
    if (available == nullptr || !available->IsBool()) {
      return Missing("hardware_counters.available");
    }
    const JsonValue* regions = RequireObject(*hw, "regions", &status);
    if (regions != nullptr) {
      for (const auto& [name, region] : regions->members) {
        if (!region.IsObject()) {
          return Missing(
              StrFormat("hardware_counters.regions.%s", name.c_str())
                  .c_str());
        }
        const JsonValue* region_available = region.Find("available");
        if (region_available == nullptr || !region_available->IsBool()) {
          return Missing(
              StrFormat("hardware_counters.regions.%s.available",
                        name.c_str())
                  .c_str());
        }
        RequireNumbers(region,
                       StrFormat("hardware_counters.regions.%s",
                                 name.c_str())
                           .c_str(),
                       {"samples", "cycles", "instructions",
                        "cache_references", "cache_misses",
                        "branch_misses"},
                       &status);
      }
      if (available->bool_value) {
        bool any = false;
        for (const auto& [name, region] : regions->members) {
          const JsonValue* a = region.Find("available");
          if (a != nullptr && a->IsBool() && a->bool_value) any = true;
        }
        if (!any) {
          return Status::Corruption(
              "hardware_counters.available is true but no region is");
        }
      }
    }
  }
  return status;
}

std::string BenchReport::ToJson() const {
  std::string out = "{";
  out += StrFormat("\"schema_version\":%d,\"kind\":%s,\"name\":%s,"
                   "\"suites\":[",
                   kSchemaVersion, Quoted(kKind).c_str(),
                   Quoted(name).c_str());
  bool first_entry = true;
  for (const BenchEntry& entry : entries) {
    if (!first_entry) out += ",";
    first_entry = false;
    out += StrFormat("{\"suite\":%s,\"config\":%s,\"metrics\":{",
                     Quoted(entry.suite).c_str(),
                     Quoted(entry.config).c_str());
    bool first_value = true;
    for (const auto& [key, value] : entry.values) {
      if (!first_value) out += ",";
      first_value = false;
      out += Quoted(key) + ":" + JsonNumber(value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string BenchReport::ToText() const {
  std::string out = StrFormat("=== bench report: %s ===\n", name.c_str());
  TextTable table({"suite", "config", "metric", "value"});
  for (const BenchEntry& entry : entries) {
    bool first = true;
    for (const auto& [key, value] : entry.values) {
      table.AddRow({first ? entry.suite : "", first ? entry.config : "",
                    key, StrFormat("%.6g", value)});
      first = false;
    }
  }
  out += table.ToString();
  return out;
}

Status ValidateBenchReportJson(const std::string& json) {
  JsonValue root;
  ALPHASORT_RETURN_IF_ERROR(ParseJson(json, &root));
  ALPHASORT_RETURN_IF_ERROR(CheckEnvelope(root, BenchReport::kKind,
                                          BenchReport::kSchemaVersion));
  const JsonValue* name = root.Find("name");
  if (name == nullptr || !name->IsString()) return Missing("name");
  const JsonValue* suites = root.Find("suites");
  if (suites == nullptr || !suites->IsArray()) return Missing("suites");
  if (suites->items.empty()) {
    return Status::Corruption("bench report has no suites");
  }
  for (size_t i = 0; i < suites->items.size(); ++i) {
    const JsonValue& entry = suites->items[i];
    const char* ctx = "suites[]";
    if (!entry.IsObject()) return Missing(ctx);
    const JsonValue* suite = entry.Find("suite");
    const JsonValue* config = entry.Find("config");
    if (suite == nullptr || !suite->IsString()) return Missing("suite");
    if (config == nullptr || !config->IsString()) return Missing("config");
    const JsonValue* values = entry.Find("metrics");
    if (values == nullptr || !values->IsObject()) return Missing("metrics");
    if (values->members.empty()) {
      return Status::Corruption(StrFormat(
          "suite \"%s\" has no metrics", suite->string_value.c_str()));
    }
    for (const auto& [key, value] : values->members) {
      if (!value.IsNumber()) {
        return Status::Corruption(StrFormat(
            "suite \"%s\" metric \"%s\" is not a number",
            suite->string_value.c_str(), key.c_str()));
      }
    }
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace alphasort
