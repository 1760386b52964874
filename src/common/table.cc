#include "common/table.hh"

#include <sstream>

#include "common/logging.hh"

namespace oova
{

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    sim_assert(!headers_.empty(), "table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    sim_assert(cells.size() == headers_.size(),
               "row has %zu cells, table has %zu columns",
               cells.size(), headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TextTable::str() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream os;
    auto emitRow = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            if (c)
                os << "  ";
            // Left-align the first column (names), right-align data.
            if (c == 0) {
                os << row[c]
                   << std::string(widths[c] - row[c].size(), ' ');
            } else {
                os << std::string(widths[c] - row[c].size(), ' ')
                   << row[c];
            }
        }
        os << '\n';
    };

    emitRow(headers_);
    size_t total = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emitRow(row);
    return os.str();
}

std::string
TextTable::fmt(double v, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << v;
    return os.str();
}

std::string
TextTable::fmt(uint64_t v)
{
    return std::to_string(v);
}

} // namespace oova
