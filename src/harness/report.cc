#include "harness/report.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/stats.hh"
#include "harness/json_report.hh"

namespace csim {

FigureGrid::FigureGrid(std::string title,
                       std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns))
{
}

void
FigureGrid::set(const std::string &workload, const std::string &column,
                double value)
{
    if (!cells_.count(workload))
        rowOrder_.push_back(workload);
    cells_[workload][column] = value;
}

double
FigureGrid::columnAverage(const std::string &column) const
{
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto &[row, vals] : cells_) {
        auto it = vals.find(column);
        if (it != vals.end()) {
            sum += it->second;
            ++count;
        }
    }
    return count ? sum / static_cast<double>(count) : 0.0;
}

std::string
FigureGrid::str() const
{
    std::vector<std::string> header{"benchmark"};
    for (const std::string &c : columns_)
        header.push_back(c);
    TextTable table(std::move(header));

    auto add_row = [&](const std::string &name,
                       const std::map<std::string, double> *vals) {
        std::vector<std::string> row{name};
        for (const std::string &c : columns_) {
            if (vals) {
                auto it = vals->find(c);
                row.push_back(it == vals->end()
                                  ? "-" : formatDouble(it->second, 3));
            } else {
                row.push_back(formatDouble(columnAverage(c), 3));
            }
        }
        table.addRow(std::move(row));
    };

    for (const std::string &row : rowOrder_)
        add_row(row, &cells_.at(row));
    add_row("AVE", nullptr);

    return title_ + "\n" + table.str();
}

bool
FigureGrid::has(const std::string &row, const std::string &column) const
{
    auto it = cells_.find(row);
    return it != cells_.end() && it->second.count(column);
}

double
FigureGrid::at(const std::string &row, const std::string &column) const
{
    auto it = cells_.find(row);
    if (it == cells_.end())
        CSIM_PANIC_F("FigureGrid: unknown row '%s'", row.c_str());
    auto jt = it->second.find(column);
    if (jt == it->second.end())
        CSIM_PANIC_F("FigureGrid: no cell ('%s', '%s')", row.c_str(),
                     column.c_str());
    return jt->second;
}

void
FigureGrid::toJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("title").value(title_);

    w.key("columns").beginArray();
    for (const std::string &c : columns_)
        w.value(c);
    w.endArray();

    w.key("rows").beginArray();
    for (const std::string &row : rowOrder_) {
        w.beginObject();
        w.key("name").value(row);
        w.key("cells").beginObject();
        const auto &vals = cells_.at(row);
        for (const std::string &c : columns_) {
            auto it = vals.find(c);
            if (it != vals.end())
                w.key(c).value(it->second);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.key("averages").beginObject();
    for (const std::string &c : columns_)
        w.key(c).value(columnAverage(c));
    w.endObject();

    w.endObject();
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

} // namespace csim
