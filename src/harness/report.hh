/**
 * @file
 * Reporting helpers shared by the bench binaries: the (workload x
 * config) grids with an AVE column that every figure in the paper
 * uses, plus small math utilities.
 */

#ifndef CSIM_HARNESS_REPORT_HH
#define CSIM_HARNESS_REPORT_HH

#include <map>
#include <string>
#include <vector>

namespace csim {

class JsonWriter;

/**
 * A figure-style grid: rows are workloads (plus an AVE row appended
 * automatically), columns are machine configurations / policy bars.
 */
class FigureGrid
{
  public:
    FigureGrid(std::string title, std::vector<std::string> columns);

    void set(const std::string &workload, const std::string &column,
             double value);

    /** Arithmetic mean down each column (the paper's AVE bars). */
    double columnAverage(const std::string &column) const;

    /** Render with fixed-width columns; values with 3 decimals. */
    std::string str() const;

    /** Emit as one JSON object: title, columns, rows, averages. */
    void toJson(JsonWriter &w) const;

    const std::string &title() const { return title_; }
    const std::vector<std::string> &columns() const { return columns_; }
    /** Row names in insertion order (without the synthetic AVE row). */
    const std::vector<std::string> &rows() const { return rowOrder_; }
    bool has(const std::string &row, const std::string &column) const;
    /** Cell value; panics when absent. */
    double at(const std::string &row, const std::string &column) const;

  private:
    std::string title_;
    std::vector<std::string> columns_;
    std::vector<std::string> rowOrder_;
    std::map<std::string, std::map<std::string, double>> cells_;
};

/** Arithmetic mean of a vector (0 when empty). */
double mean(const std::vector<double> &xs);

} // namespace csim

#endif // CSIM_HARNESS_REPORT_HH
