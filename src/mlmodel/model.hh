/**
 * @file
 * Common interface for the regression models that map a (normalised)
 * microarchitecture design vector to a scalar response — in the paper's
 * pipeline, one wavelet coefficient per model.
 */

#ifndef WAVEDYN_MLMODEL_MODEL_HH
#define WAVEDYN_MLMODEL_MODEL_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hh"

namespace wavedyn
{

/** Abstract scalar regression model. */
class RegressionModel
{
  public:
    virtual ~RegressionModel() = default;

    /**
     * Fit the model to n observations.
     * @param x n x d input matrix (rows are design vectors).
     * @param y n responses.
     */
    virtual void fit(const Matrix &x, const std::vector<double> &y) = 0;

    /** Predict the response at one input. @pre fitted. */
    virtual double predict(const std::vector<double> &input) const = 0;

    /** Short model name for reports. */
    virtual std::string name() const = 0;

    /**
     * Write the fitted parameters as a whitespace-separated text
     * record (first token is name()). loadRegressionModel() restores.
     */
    virtual void save(std::ostream &os) const = 0;

    /**
     * Predict every row of a matrix in one call: the prediction
     * driver's evaluator for models without a lattice form
     * (TraceEvaluator::Workspace::predict). The default
     * loops over predict() with a reused row buffer; overrides must
     * return values bit-identical to predict() on each row.
     */
    virtual std::vector<double>
    predictMany(const Matrix &x) const
    {
        std::vector<double> out(x.rows());
        std::vector<double> row(x.cols());
        for (std::size_t r = 0; r < x.rows(); ++r) {
            row.assign(x.rowPtr(r), x.rowPtr(r) + x.cols());
            out[r] = predict(row);
        }
        return out;
    }
};

/**
 * Rebuild a model previously written by RegressionModel::save().
 * @return nullptr on malformed input.
 */
std::unique_ptr<RegressionModel> loadRegressionModel(std::istream &is);

} // namespace wavedyn

#endif // WAVEDYN_MLMODEL_MODEL_HH
