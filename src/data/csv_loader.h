// CSV ingestion: load a real dataset column (e.g. the UCI adult table's
// capital-loss attribute) into a Dataset when the user has the file, so
// the synthetic generators are only a fallback.
//
// The loader is deliberately small: comma separation, optional header,
// no quoting (none of the paper's datasets need it). Values are mapped to
// domain levels either directly (integer columns) or through per-column
// binning.

#ifndef BLOWFISH_DATA_CSV_LOADER_H_
#define BLOWFISH_DATA_CSV_LOADER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/domain.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace blowfish {

struct CsvColumnSpec {
  /// Zero-based column index in the file.
  size_t column = 0;
  /// Attribute descriptor; values are clamped into
  /// [0, cardinality - 1] after binning.
  Attribute attribute;
  /// Value of the column is divided by `bin_width` to obtain the level
  /// (1.0 = take the integer value as the level).
  double bin_width = 1.0;
  /// Offset subtracted before binning (for columns not starting at 0).
  double offset = 0.0;
};

struct CsvOptions {
  bool has_header = true;
  char separator = ',';
  /// Rows with non-numeric cells in the selected columns are skipped when
  /// true, and cause an error when false.
  bool skip_bad_rows = true;
  /// Record load observability after a successful load:
  /// data_load_seconds and data_rows (both cumulative) and
  /// data_column_cardinality{attr=...} (the distinct levels observed in
  /// the most recent load of that attribute; see csv_loader.cc).
  bool record_load_metrics = true;
  /// Registry the load metrics report into; nullptr = the process-wide
  /// default (what the STATS verb and SIGUSR1 Prometheus dump serve).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Parses CSV text into a dataset over the cross product of the selected
/// columns' attributes.
StatusOr<Dataset> LoadCsv(const std::string& text,
                          const std::vector<CsvColumnSpec>& columns,
                          const CsvOptions& options = {});

/// Convenience: reads the file at `path` and calls LoadCsv.
StatusOr<Dataset> LoadCsvFile(const std::string& path,
                              const std::vector<CsvColumnSpec>& columns,
                              const CsvOptions& options = {});

}  // namespace blowfish

#endif  // BLOWFISH_DATA_CSV_LOADER_H_
