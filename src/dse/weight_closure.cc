#include "dse/weight_closure.hh"

#include <cmath>

#include "components/battery.hh"
#include "components/esc.hh"
#include "components/frame.hh"
#include "components/propeller.hh"
#include "physics/lipo.hh"
#include "physics/propeller_aero.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace dronedse {

Quantity<Grams>
wiringWeightG(Quantity<Grams> frame_weight)
{
    return Quantity<Grams>(20.0) + 0.15 * frame_weight;
}

const SurveyModel &
SurveyModel::paper()
{
    static const SurveyModel model = [] {
        SurveyModel m;
        for (int cells = kMinCells; cells <= kMaxCells; ++cells)
            m.batteryFits[cells - 1] = paperBatteryFit(cells);
        for (EscClass cls : {EscClass::ShortFlight, EscClass::LongFlight})
            m.escFits[static_cast<int>(cls)] = paperEscFit(cls);
        m.frameFit = paperFrameFit();
        return m;
    }();
    return model;
}

DesignResult
solveDesign(const DesignInputs &inputs, const SurveyModel &model)
{
    DesignResult res;
    res.inputs = inputs;

    if (inputs.cells < kMinCells || inputs.cells > kMaxCells) {
        res.infeasibleReason = Infeasibility::CellCount;
        return res;
    }
    if (inputs.capacityMah.value() <= 0.0 || inputs.twr < 1.0 ||
        inputs.wheelbaseMm.value() <= 0.0) {
        res.infeasibleReason = Infeasibility::InvalidInputs;
        return res;
    }

    const Quantity<Inches> prop = inputs.propDiameterIn.value() > 0.0
                                      ? inputs.propDiameterIn
                                      : maxPropDiameterIn(inputs.wheelbaseMm);
    const Quantity<Volts> voltage = lipoPackVoltage(inputs.cells);

    // Weight components independent of the thrust requirement.
    res.frameWeightG = frameWeightG(inputs.wheelbaseMm, model.frameFit);
    res.batteryWeightG = batteryWeightG(
        inputs.capacityMah, model.batteryFits[inputs.cells - 1]);
    res.propSetWeightG = propellerSetWeightG(prop);
    res.wiringWeightG = wiringWeightG(res.frameWeightG);
    const Quantity<Grams> fixed_weight =
        res.frameWeightG + res.batteryWeightG + res.propSetWeightG +
        res.wiringWeightG + Quantity<Grams>(inputs.compute.weightG) +
        inputs.sensorWeightG + inputs.payloadG;

    // Equation 1/2 fixed point: motor and ESC weights depend on the
    // thrust requirement, which depends on total weight.
    const LinearFit &esc_fit =
        model.escFits[static_cast<int>(inputs.escClass)];
    Quantity<Grams> total = fixed_weight;
    MotorRecord motor;
    Quantity<Grams> esc_w{};
    bool converged = false;
    for (int iter = 0; iter < 60; ++iter) {
        const Quantity<GramsForce> thrust_per_motor =
            weightForce(total) * (inputs.twr / 4.0);
        motor = matchMotor(thrust_per_motor, prop, voltage);
        esc_w = escSetWeightG(motor.maxCurrent(), esc_fit);
        const Quantity<Grams> new_total =
            fixed_weight + 4.0 * motor.weight() + esc_w;
        if (std::fabs((new_total - total).value()) < 0.01) {
            total = new_total;
            converged = true;
            break;
        }
        total = new_total;
        if (total.value() > 1.0e6)
            break;
    }
    if (!converged) {
        res.infeasibleReason = Infeasibility::Diverged;
        return res;
    }

    res.totalWeightG = total;
    res.motor = motor;
    res.motorMaxCurrentA = motor.maxCurrent();
    res.motorSetWeightG = 4.0 * motor.weight();
    res.escSetWeightG = esc_w;
    res.basicWeightG = total - res.batteryWeightG - res.motorSetWeightG -
                       res.escSetWeightG;
    res.extremeKv = motor.kv > kExtremeKvThreshold;

    // Equation 3: average power from the flying load fraction.
    const double load = flyingLoadFraction(inputs.activity);
    res.maxPowerW = 4.0 * (motor.maxCurrent() * voltage);
    res.propulsionPowerW = res.maxPowerW * load;
    res.computePowerW = Quantity<Watts>(inputs.compute.powerW);
    res.sensorPowerW = inputs.sensorPowerW;
    res.avgPowerW =
        res.propulsionPowerW + res.computePowerW + res.sensorPowerW;

    // Equation 4: usable energy.
    res.usableEnergyWh = usableEnergyWh(inputs.capacityMah, voltage);

    // Equation 5: flight time.
    res.flightTimeMin = wattHoursToMinutes(res.usableEnergyWh,
                                           res.avgPowerW);

    // Equation 6: computation footprint.
    res.computePowerFraction = res.computePowerW / res.avgPowerW;

    // Sanity: the battery must be able to deliver the max current.
    const Quantity<Amperes> max_current_needed = 4.0 * motor.maxCurrent();
    // High-C packs reach ~80C continuous; beyond that no pack of
    // this capacity can feed the motors.
    const Quantity<Amperes> pack_limit =
        (inputs.capacityMah * 80.0 / Quantity<Hours>(1.0)).to<Amperes>();
    if (pack_limit < max_current_needed) {
        res.infeasibleReason = Infeasibility::CRating;
        return res;
    }

    res.feasible = true;
    return res;
}

} // namespace dronedse
