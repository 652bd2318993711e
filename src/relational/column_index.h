#ifndef FUSION_RELATIONAL_COLUMN_INDEX_H_
#define FUSION_RELATIONAL_COLUMN_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "relational/relation.h"

namespace fusion {

/// Hash index over one column of a relation: value → row positions. Built
/// once, read-only thereafter (the backing relation must not change; our
/// simulated sources are immutable after construction).
///
/// This is an implementation accelerator, not a cost-model feature: the
/// simulated per-tuple processing charge still reflects the *source's*
/// declared scan cost, while the simulator itself answers record fetches
/// (SimulatedSource::FetchRecords, which returns whole rows) in
/// O(items) instead of O(|R|). That is its only caller: selections and
/// native semijoins run on the relation's columnar mirror, driven by its
/// equality row lists (ColumnarTable::RowsEqual).
class ColumnIndex {
 public:
  /// Builds the index over `column` (NULLs are not indexed).
  static Result<ColumnIndex> Build(const Relation& relation,
                                   const std::string& column);

  /// Row positions holding `value`; null when absent.
  const std::vector<size_t>* Rows(const Value& value) const;

  size_t distinct_values() const { return rows_by_value_.size(); }
  const std::string& column() const { return column_; }

 private:
  ColumnIndex() = default;

  std::string column_;
  std::unordered_map<Value, std::vector<size_t>, ValueHash> rows_by_value_;
};

}  // namespace fusion

#endif  // FUSION_RELATIONAL_COLUMN_INDEX_H_
