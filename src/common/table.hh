/**
 * @file
 * Plain-text table formatting for the benchmark harness. Every
 * reproduced paper table/figure is emitted through TextTable so the
 * output is aligned for humans.
 */

#ifndef OOVA_COMMON_TABLE_HH
#define OOVA_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace oova
{

/** A simple column-aligned text table with a header row. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    /** Append a row; the cell count must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Render with padded columns and a separator under the header. */
    std::string str() const;

    size_t numRows() const { return rows_.size(); }
    size_t numCols() const { return headers_.size(); }

    const std::vector<std::string> &headers() const { return headers_; }
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

    /** Format a double with fixed precision. */
    static std::string fmt(double v, int precision = 2);

    /** Format an integer with thousands grouping disabled. */
    static std::string fmt(uint64_t v);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace oova

#endif // OOVA_COMMON_TABLE_HH
