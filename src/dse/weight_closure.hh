/**
 * @file
 * The design-point solver: Equations 1-6 of the paper.
 *
 * Component weights depend on the thrust requirement, which depends
 * on total weight, which includes those components — so the solver
 * iterates the weight closure to a fixed point ("if the additional
 * weights necessitate a new motor, we redo the previous steps",
 * Section 3.2), then evaluates power, energy, flight time, and the
 * computation footprint.
 *
 * The three component-survey fits the closure reads (battery per
 * cell count, ESC per class, frame) are an argument, `SurveyModel`,
 * defaulting to the published coefficients.  The uncertainty layer
 * solves perturbed models through the same function (and the batch
 * kernel through the same fits), so the nominal and the perturbed
 * paths are one code path.
 */

#ifndef DRONEDSE_DSE_WEIGHT_CLOSURE_HH
#define DRONEDSE_DSE_WEIGHT_CLOSURE_HH

#include <array>

#include "dse/design_point.hh"
#include "util/regression.hh"

namespace dronedse {

/**
 * Kv above which the paper marks "extremely high Kv" requirements
 * (Figure 9a annotates 25000Kv for 2" props on light packs).
 */
inline constexpr double kExtremeKvThreshold = 20000.0;

/**
 * Support-hardware weight (wiring, PDB, RC receiver, mounts) as a
 * function of frame weight; anchored to the paper's 450 mm drone
 * (Figure 14: ~60 g of wiring/misc on a 272 g frame).
 */
Quantity<Grams> wiringWeightG(Quantity<Grams> frame_weight);

/** Every survey-fit coefficient the design solver consumes. */
struct SurveyModel
{
    /** Capacity -> pack weight, indexed by cells - 1 (Figure 7). */
    std::array<LinearFit, 6> batteryFits;
    /** Current -> 4x-ESC weight, indexed by EscClass (Figure 8a). */
    std::array<LinearFit, 2> escFits;
    /** Wheelbase -> frame weight above 200 mm (Figure 8b). */
    LinearFit frameFit;

    /** The published coefficient set: one shared, immutable instance. */
    static const SurveyModel &paper();
};

/**
 * Resolve a design point under `model`: close the weight loop
 * (Equations 1-2), then evaluate average power (Equation 3), usable
 * energy (Equation 4), flight time (Equation 5), and the compute
 * power fraction (Equation 6).
 *
 * Always returns; check DesignResult::feasible.
 */
DesignResult solveDesign(const DesignInputs &inputs,
                         const SurveyModel &model = SurveyModel::paper());

} // namespace dronedse

#endif // DRONEDSE_DSE_WEIGHT_CLOSURE_HH
