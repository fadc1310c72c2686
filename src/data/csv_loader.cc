#include "data/csv_loader.h"

#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_set>

namespace blowfish {

namespace {

StatusOr<double> ParseCell(const std::string& cell) {
  try {
    size_t pos = 0;
    double v = std::stod(cell, &pos);
    // Allow trailing spaces only.
    while (pos < cell.size() &&
           std::isspace(static_cast<unsigned char>(cell[pos]))) {
      ++pos;
    }
    if (pos != cell.size()) {
      return Status::InvalidArgument("non-numeric cell: '" + cell + "'");
    }
    return v;
  } catch (...) {
    return Status::InvalidArgument("non-numeric cell: '" + cell + "'");
  }
}

/// Records one load into `metrics` (nullptr = the process-wide registry,
/// which is what the STATS wire verb and the daemon's SIGUSR1 Prometheus
/// dump serve):
///
///   data_load_seconds                   cumulative seconds spent loading
///   data_rows                           cumulative rows loaded (gauge)
///   data_column_cardinality{attr=NAME}  observed distinct levels of the
///                                       most recently loaded column with
///                                       that attribute name
///
/// Loads happen sequentially at startup (config parsing / tenant
/// construction), so the set-to-latest cardinality semantics are stable.
void RecordDatasetLoadMetrics(
    const Domain& domain, size_t rows,
    const std::vector<std::unordered_set<uint64_t>>& levels,
    double load_seconds, obs::MetricsRegistry* metrics) {
  obs::MetricsRegistry* registry =
      metrics != nullptr ? metrics : obs::MetricsRegistry::Global();
  registry->GetDoubleCounter("data_load_seconds")->Add(load_seconds);
  registry->GetGauge("data_rows")->Add(static_cast<int64_t>(rows));
  for (size_t j = 0; j < levels.size(); ++j) {
    obs::Gauge* gauge = registry->GetGauge(
        "data_column_cardinality{attr=" + domain.attribute(j).name + "}");
    // Set-to-latest: the delta write is not racing another loader.
    gauge->Add(static_cast<int64_t>(levels[j].size()) - gauge->Value());
  }
}

}  // namespace

StatusOr<Dataset> LoadCsv(const std::string& text,
                          const std::vector<CsvColumnSpec>& columns,
                          const CsvOptions& options) {
  if (columns.empty()) {
    return Status::InvalidArgument("no columns selected");
  }
  const auto load_start = std::chrono::steady_clock::now();
  std::vector<Attribute> attrs;
  attrs.reserve(columns.size());
  size_t max_column = 0;
  for (const CsvColumnSpec& c : columns) {
    if (!(c.bin_width > 0.0)) {
      return Status::InvalidArgument("bin_width must be positive");
    }
    attrs.push_back(c.attribute);
    max_column = std::max(max_column, c.column);
  }
  BLOWFISH_ASSIGN_OR_RETURN(Domain domain_v, Domain::Create(attrs));
  auto domain = std::make_shared<const Domain>(std::move(domain_v));

  std::vector<ValueIndex> tuples;
  // Distinct observed levels per attribute, for data_column_cardinality.
  std::vector<std::unordered_set<uint64_t>> levels(
      options.record_load_metrics ? columns.size() : 0);
  std::istringstream in(text);
  std::string line;
  bool first = true;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (first && options.has_header) {
      first = false;
      continue;
    }
    first = false;
    if (line.empty()) continue;
    // Split the row.
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream row(line);
    while (std::getline(row, cell, options.separator)) {
      cells.push_back(cell);
    }
    if (cells.size() <= max_column) {
      if (options.skip_bad_rows) continue;
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": too few columns");
    }
    std::vector<uint64_t> coords(columns.size());
    bool bad = false;
    for (size_t i = 0; i < columns.size(); ++i) {
      const CsvColumnSpec& spec = columns[i];
      StatusOr<double> value = ParseCell(cells[spec.column]);
      if (!value.ok()) {
        if (options.skip_bad_rows) {
          bad = true;
          break;
        }
        return value.status();
      }
      double level = std::floor((*value - spec.offset) / spec.bin_width);
      if (level < 0) level = 0;
      double max_level =
          static_cast<double>(spec.attribute.cardinality - 1);
      if (level > max_level) level = max_level;
      coords[i] = static_cast<uint64_t>(level);
    }
    if (bad) continue;
    for (size_t i = 0; i < levels.size(); ++i) levels[i].insert(coords[i]);
    tuples.push_back(domain->Encode(coords));
  }
  BLOWFISH_ASSIGN_OR_RETURN(Dataset data,
                            Dataset::Create(domain, std::move(tuples)));
  if (options.record_load_metrics) {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      load_start)
            .count();
    RecordDatasetLoadMetrics(*domain, data.size(), levels, seconds,
                             options.metrics);
  }
  return data;
}

StatusOr<Dataset> LoadCsvFile(const std::string& path,
                              const std::vector<CsvColumnSpec>& columns,
                              const CsvOptions& options) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  return LoadCsv(buffer.str(), columns, options);
}

}  // namespace blowfish
