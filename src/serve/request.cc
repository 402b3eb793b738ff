#include "serve/request.hh"

#include <cmath>

#include "util/json.hh"
#include "util/logging.hh"

namespace dronedse::serve {

namespace {

/** Largest id that survives the double-typed JSON number channel. */
constexpr double kMaxId = 9007199254740992.0; // 2^53

bool
invalid(ErrorReply &err, const std::string &message)
{
    err.code = ErrorCode::InvalidRequest;
    err.message = message;
    return false;
}

/**
 * Read an optional member of `obj`: absent keeps the caller's
 * default and succeeds; present-but-wrong-type fails.
 */
bool
readDouble(const JsonValue &obj, const char *key, double &out,
           ErrorReply &err)
{
    const JsonValue *value = obj.find(key);
    if (!value)
        return true;
    if (!value->isNumber())
        return invalid(err, std::string(key) + " must be a number");
    out = value->asNumber();
    return true;
}

bool
readInt(const JsonValue &obj, const char *key, int &out,
        ErrorReply &err)
{
    const JsonValue *value = obj.find(key);
    if (!value)
        return true;
    if (!value->isNumber())
        return invalid(err, std::string(key) + " must be a number");
    const double v = value->asNumber();
    if (std::floor(v) != v || v < -1e9 || v > 1e9)
        return invalid(err, std::string(key) + " must be an integer");
    out = static_cast<int>(v);
    return true;
}

bool
readString(const JsonValue &obj, const char *key, std::string &out,
           ErrorReply &err)
{
    const JsonValue *value = obj.find(key);
    if (!value)
        return true;
    if (!value->isString())
        return invalid(err, std::string(key) + " must be a string");
    out = value->asString();
    return true;
}

bool
readSize(const JsonValue &obj, const char *key, std::size_t &out,
         ErrorReply &err)
{
    const JsonValue *value = obj.find(key);
    if (!value)
        return true;
    if (!value->isNumber())
        return invalid(err, std::string(key) + " must be a number");
    const double v = value->asNumber();
    if (std::floor(v) != v || v < 0.0 || v > kMaxId)
        return invalid(err, std::string(key) +
                                " must be a non-negative integer");
    out = static_cast<std::size_t>(v);
    return true;
}

bool
readU64(const JsonValue &obj, const char *key, std::uint64_t &out,
        ErrorReply &err)
{
    std::size_t v = static_cast<std::size_t>(out);
    if (!readSize(obj, key, v, err))
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

bool
readBool(const JsonValue &obj, const char *key, bool &out,
         ErrorReply &err)
{
    const JsonValue *value = obj.find(key);
    if (!value)
        return true;
    if (!value->isBool())
        return invalid(err, std::string(key) + " must be a boolean");
    out = value->asBool();
    return true;
}

bool
parseEscClass(const std::string &name, EscClass &out, ErrorReply &err)
{
    if (name == "short_flight")
        out = EscClass::ShortFlight;
    else if (name == "long_flight")
        out = EscClass::LongFlight;
    else
        return invalid(err, "unknown esc_class '" + name + "'");
    return true;
}

const char *
escClassName(EscClass esc)
{
    return esc == EscClass::ShortFlight ? "short_flight"
                                        : "long_flight";
}

bool
parseActivity(const std::string &name, FlightActivity &out,
              ErrorReply &err)
{
    if (name == "hovering")
        out = FlightActivity::Hovering;
    else if (name == "maneuvering")
        out = FlightActivity::Maneuvering;
    else
        return invalid(err, "unknown activity '" + name + "'");
    return true;
}

const char *
activityName(FlightActivity activity)
{
    return activity == FlightActivity::Hovering ? "hovering"
                                                : "maneuvering";
}

bool
parseBoardClass(const std::string &name, BoardClass &out,
                ErrorReply &err)
{
    if (name == "basic")
        out = BoardClass::Basic;
    else if (name == "improved")
        out = BoardClass::Improved;
    else
        return invalid(err, "unknown board class '" + name + "'");
    return true;
}

const char *
boardClassName(BoardClass cls)
{
    return cls == BoardClass::Basic ? "basic" : "improved";
}

bool
parseBoard(const JsonValue &value, ComputeBoardRecord &out,
           ErrorReply &err)
{
    if (!value.isObject())
        return invalid(err, "board must be an object");
    std::string name = out.name.str();
    std::string cls_name;
    if (!readString(value, "name", name, err) ||
        !readString(value, "class", cls_name, err) ||
        !readDouble(value, "weight_g", out.weightG, err) ||
        !readDouble(value, "power_w", out.powerW, err))
        return false;
    if (!BoardName::fits(name))
        return invalid(err, "board name exceeds " +
                                std::to_string(BoardName::kCapacity) +
                                " bytes");
    out.name = BoardName(name);
    if (!cls_name.empty() &&
        !parseBoardClass(cls_name, out.boardClass, err))
        return false;
    return true;
}

std::string
serializeBoard(const ComputeBoardRecord &board)
{
    std::string out = "{";
    out += "\"name\": " + jsonQuote(board.name.str());
    out += ", \"class\": " +
           jsonQuote(boardClassName(board.boardClass));
    out += ", \"weight_g\": " + jsonNumber(board.weightG);
    out += ", \"power_w\": " + jsonNumber(board.powerW);
    out += "}";
    return out;
}

bool
parsePoint(const JsonValue &value, DesignInputs &out, ErrorReply &err)
{
    if (!value.isObject())
        return invalid(err, "point must be an object");
    double wheelbase = out.wheelbaseMm.value();
    double capacity = out.capacityMah.value();
    double prop = out.propDiameterIn.value();
    double sensor_weight = out.sensorWeightG.value();
    double sensor_power = out.sensorPowerW.value();
    double payload = out.payloadG.value();
    std::string esc_name;
    std::string activity_name_in;
    if (!readDouble(value, "wheelbase_mm", wheelbase, err) ||
        !readInt(value, "cells", out.cells, err) ||
        !readDouble(value, "capacity_mah", capacity, err) ||
        !readDouble(value, "twr", out.twr, err) ||
        !readDouble(value, "prop_diameter_in", prop, err) ||
        !readString(value, "esc_class", esc_name, err) ||
        !readDouble(value, "sensor_weight_g", sensor_weight, err) ||
        !readDouble(value, "sensor_power_w", sensor_power, err) ||
        !readDouble(value, "payload_g", payload, err) ||
        !readString(value, "activity", activity_name_in, err))
        return false;
    if (!esc_name.empty() &&
        !parseEscClass(esc_name, out.escClass, err))
        return false;
    if (!activity_name_in.empty() &&
        !parseActivity(activity_name_in, out.activity, err))
        return false;
    if (const JsonValue *board = value.find("board")) {
        if (!parseBoard(*board, out.compute, err))
            return false;
    }
    out.wheelbaseMm = Quantity<Millimeters>(wheelbase);
    out.capacityMah = Quantity<MilliampHours>(capacity);
    out.propDiameterIn = Quantity<Inches>(prop);
    out.sensorWeightG = Quantity<Grams>(sensor_weight);
    out.sensorPowerW = Quantity<Watts>(sensor_power);
    out.payloadG = Quantity<Grams>(payload);
    return true;
}

std::string
serializePoint(const DesignInputs &point)
{
    std::string out = "{";
    out += "\"wheelbase_mm\": " +
           jsonNumber(point.wheelbaseMm.value());
    out += ", \"cells\": " + std::to_string(point.cells);
    out += ", \"capacity_mah\": " +
           jsonNumber(point.capacityMah.value());
    out += ", \"twr\": " + jsonNumber(point.twr);
    out += ", \"prop_diameter_in\": " +
           jsonNumber(point.propDiameterIn.value());
    out += ", \"esc_class\": " +
           jsonQuote(escClassName(point.escClass));
    out += ", \"board\": " + serializeBoard(point.compute);
    out += ", \"sensor_weight_g\": " +
           jsonNumber(point.sensorWeightG.value());
    out += ", \"sensor_power_w\": " +
           jsonNumber(point.sensorPowerW.value());
    out += ", \"payload_g\": " + jsonNumber(point.payloadG.value());
    out += ", \"activity\": " +
           jsonQuote(activityName(point.activity));
    out += "}";
    return out;
}

bool
parseSpec(const JsonValue &value, SweepSpec &out, ErrorReply &err)
{
    if (!value.isObject())
        return invalid(err, "spec must be an object");
    if (const JsonValue *airframes = value.find("airframes")) {
        if (!airframes->isArray())
            return invalid(err, "airframes must be an array");
        out.airframes.clear();
        for (const JsonValue &entry : airframes->items()) {
            if (!entry.isObject())
                return invalid(err,
                               "airframes entries must be objects");
            double wheelbase = 450.0;
            double prop = 0.0;
            if (!readDouble(entry, "wheelbase_mm", wheelbase, err) ||
                !readDouble(entry, "prop_diameter_in", prop, err))
                return false;
            out.airframes.push_back(
                SweepAirframe{Quantity<Millimeters>(wheelbase),
                              Quantity<Inches>(prop)});
        }
    }
    if (const JsonValue *boards = value.find("boards")) {
        if (!boards->isArray())
            return invalid(err, "boards must be an array");
        out.boards.clear();
        for (const JsonValue &entry : boards->items()) {
            ComputeBoardRecord board;
            if (!parseBoard(entry, board, err))
                return false;
            out.boards.push_back(std::move(board));
        }
    }
    if (const JsonValue *activities = value.find("activities")) {
        if (!activities->isArray())
            return invalid(err, "activities must be an array");
        out.activities.clear();
        for (const JsonValue &entry : activities->items()) {
            if (!entry.isString())
                return invalid(err,
                               "activities entries must be strings");
            FlightActivity activity = FlightActivity::Hovering;
            if (!parseActivity(entry.asString(), activity, err))
                return false;
            out.activities.push_back(activity);
        }
    }
    if (const JsonValue *cells = value.find("cells")) {
        if (!cells->isArray())
            return invalid(err, "cells must be an array");
        out.cells.clear();
        for (const JsonValue &entry : cells->items()) {
            if (!entry.isNumber() ||
                std::floor(entry.asNumber()) != entry.asNumber())
                return invalid(err,
                               "cells entries must be integers");
            out.cells.push_back(static_cast<int>(entry.asNumber()));
        }
    }
    double lo = out.capacityLoMah.value();
    double hi = out.capacityHiMah.value();
    double step = out.capacityStepMah.value();
    double sensor_weight = out.sensorWeightG.value();
    double sensor_power = out.sensorPowerW.value();
    double payload = out.payloadG.value();
    std::string esc_name;
    if (!readDouble(value, "capacity_lo_mah", lo, err) ||
        !readDouble(value, "capacity_hi_mah", hi, err) ||
        !readDouble(value, "capacity_step_mah", step, err) ||
        !readDouble(value, "twr", out.twr, err) ||
        !readString(value, "esc_class", esc_name, err) ||
        !readDouble(value, "sensor_weight_g", sensor_weight, err) ||
        !readDouble(value, "sensor_power_w", sensor_power, err) ||
        !readDouble(value, "payload_g", payload, err))
        return false;
    if (!esc_name.empty() &&
        !parseEscClass(esc_name, out.escClass, err))
        return false;
    out.capacityLoMah = Quantity<MilliampHours>(lo);
    out.capacityHiMah = Quantity<MilliampHours>(hi);
    out.capacityStepMah = Quantity<MilliampHours>(step);
    out.sensorWeightG = Quantity<Grams>(sensor_weight);
    out.sensorPowerW = Quantity<Watts>(sensor_power);
    out.payloadG = Quantity<Grams>(payload);
    return true;
}

std::string
serializeSpec(const SweepSpec &spec)
{
    std::string out = "{\"airframes\": [";
    for (std::size_t i = 0; i < spec.airframes.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "{\"wheelbase_mm\": " +
               jsonNumber(spec.airframes[i].wheelbaseMm.value());
        out += ", \"prop_diameter_in\": " +
               jsonNumber(spec.airframes[i].propDiameterIn.value());
        out += "}";
    }
    out += "], \"boards\": [";
    for (std::size_t i = 0; i < spec.boards.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += serializeBoard(spec.boards[i]);
    }
    out += "], \"activities\": [";
    for (std::size_t i = 0; i < spec.activities.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonQuote(activityName(spec.activities[i]));
    }
    out += "], \"cells\": [";
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += std::to_string(spec.cells[i]);
    }
    out += "], \"capacity_lo_mah\": " +
           jsonNumber(spec.capacityLoMah.value());
    out += ", \"capacity_hi_mah\": " +
           jsonNumber(spec.capacityHiMah.value());
    out += ", \"capacity_step_mah\": " +
           jsonNumber(spec.capacityStepMah.value());
    out += ", \"twr\": " + jsonNumber(spec.twr);
    out += ", \"esc_class\": " +
           jsonQuote(escClassName(spec.escClass));
    out += ", \"sensor_weight_g\": " +
           jsonNumber(spec.sensorWeightG.value());
    out += ", \"sensor_power_w\": " +
           jsonNumber(spec.sensorPowerW.value());
    out += ", \"payload_g\": " + jsonNumber(spec.payloadG.value());
    out += "}";
    return out;
}

std::string
serializeResult(const DesignResult &result)
{
    if (!result.feasible) {
        return "{\"feasible\": false, \"reason\": " +
               jsonQuote(infeasibilityText(result.infeasibleReason)) + "}";
    }
    std::string out = "{\"feasible\": true";
    out += ", \"total_weight_g\": " +
           jsonNumber(result.totalWeightG.value());
    out += ", \"basic_weight_g\": " +
           jsonNumber(result.basicWeightG.value());
    out += ", \"battery_weight_g\": " +
           jsonNumber(result.batteryWeightG.value());
    out += ", \"motor_kv\": " + jsonNumber(result.motor.kv);
    out += ", \"max_power_w\": " +
           jsonNumber(result.maxPowerW.value());
    out += ", \"avg_power_w\": " +
           jsonNumber(result.avgPowerW.value());
    out += ", \"usable_energy_wh\": " +
           jsonNumber(result.usableEnergyWh.value());
    out += ", \"flight_time_min\": " +
           jsonNumber(result.flightTimeMin.value());
    out += ", \"compute_power_fraction\": " +
           jsonNumber(result.computePowerFraction);
    out += "}";
    return out;
}

bool
parseMission(const JsonValue &value, codesign::MissionSpec &out,
             ErrorReply &err)
{
    if (!value.isObject())
        return invalid(err, "mission must be an object");
    std::string activity_name_in;
    double lo = out.capacityLoMah.value();
    double hi = out.capacityHiMah.value();
    double step = out.capacityStepMah.value();
    double payload = out.payloadG.value();
    if (!readString(value, "name", out.name, err) ||
        !readDouble(value, "target_rate_hz", out.targetRateHz,
                    err) ||
        !readDouble(value, "capacity_lo_mah", lo, err) ||
        !readDouble(value, "capacity_hi_mah", hi, err) ||
        !readDouble(value, "capacity_step_mah", step, err) ||
        !readDouble(value, "payload_g", payload, err) ||
        !readString(value, "activity", activity_name_in, err))
        return false;
    if (!activity_name_in.empty() &&
        !parseActivity(activity_name_in, out.activity, err))
        return false;
    if (const JsonValue *ops = value.find("per_frame_ops")) {
        if (!ops->isArray() ||
            ops->items().size() != out.perFrameOps.size())
            return invalid(err, "per_frame_ops must be an array of " +
                                    std::to_string(
                                        out.perFrameOps.size()) +
                                    " numbers");
        std::size_t i = 0;
        for (const JsonValue &entry : ops->items()) {
            if (!entry.isNumber())
                return invalid(
                    err, "per_frame_ops entries must be numbers");
            out.perFrameOps[i++] = entry.asNumber();
        }
    }
    if (const JsonValue *wheelbases = value.find("wheelbases_mm")) {
        if (!wheelbases->isArray())
            return invalid(err, "wheelbases_mm must be an array");
        out.wheelbasesMm.clear();
        for (const JsonValue &entry : wheelbases->items()) {
            if (!entry.isNumber())
                return invalid(
                    err, "wheelbases_mm entries must be numbers");
            out.wheelbasesMm.push_back(
                Quantity<Millimeters>(entry.asNumber()));
        }
    }
    if (const JsonValue *cells = value.find("cells")) {
        if (!cells->isArray())
            return invalid(err, "cells must be an array");
        out.cells.clear();
        for (const JsonValue &entry : cells->items()) {
            if (!entry.isNumber() ||
                std::floor(entry.asNumber()) != entry.asNumber())
                return invalid(err,
                               "cells entries must be integers");
            out.cells.push_back(static_cast<int>(entry.asNumber()));
        }
    }
    out.capacityLoMah = Quantity<MilliampHours>(lo);
    out.capacityHiMah = Quantity<MilliampHours>(hi);
    out.capacityStepMah = Quantity<MilliampHours>(step);
    out.payloadG = Quantity<Grams>(payload);
    return true;
}

std::string
serializeMission(const codesign::MissionSpec &mission)
{
    std::string out = "{";
    out += "\"name\": " + jsonQuote(mission.name);
    out += ", \"target_rate_hz\": " +
           jsonNumber(mission.targetRateHz);
    out += ", \"per_frame_ops\": [";
    for (std::size_t i = 0; i < mission.perFrameOps.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonNumber(mission.perFrameOps[i]);
    }
    out += "], \"wheelbases_mm\": [";
    for (std::size_t i = 0; i < mission.wheelbasesMm.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonNumber(mission.wheelbasesMm[i].value());
    }
    out += "], \"cells\": [";
    for (std::size_t i = 0; i < mission.cells.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += std::to_string(mission.cells[i]);
    }
    out += "], \"capacity_lo_mah\": " +
           jsonNumber(mission.capacityLoMah.value());
    out += ", \"capacity_hi_mah\": " +
           jsonNumber(mission.capacityHiMah.value());
    out += ", \"capacity_step_mah\": " +
           jsonNumber(mission.capacityStepMah.value());
    out += ", \"activity\": " +
           jsonQuote(activityName(mission.activity));
    out += ", \"payload_g\": " +
           jsonNumber(mission.payloadG.value());
    out += "}";
    return out;
}

/**
 * One explore axis.  Continuous kinds carry the lattice ladder
 * (`{"axis": "twr", "lo": 1.5, "step": 0.5, "count": 4}`);
 * enumerated kinds carry their value list (`{"axis": "cells",
 * "values": [3, 4]}`, `{"axis": "board", "boards": [...]}`,
 * `{"axis": "activity", "values": ["hovering"]}`).
 */
bool
parseAxis(const JsonValue &value, explore::AxisSpec &out,
          ErrorReply &err)
{
    if (!value.isObject())
        return invalid(err, "axes entries must be objects");
    std::string kind_name;
    if (!readString(value, "axis", kind_name, err))
        return false;
    if (kind_name.empty())
        return invalid(err, "axis entries require an axis name");
    if (!explore::parseAxisKind(kind_name, out.kind))
        return invalid(err, "unknown axis '" + kind_name + "'");
    switch (out.kind) {
    case explore::AxisKind::Cells: {
        const JsonValue *values = value.find("values");
        if (!values || !values->isArray())
            return invalid(err, "cells axis requires a values array");
        out.cells.clear();
        for (const JsonValue &entry : values->items()) {
            if (!entry.isNumber() ||
                std::floor(entry.asNumber()) != entry.asNumber())
                return invalid(
                    err, "cells axis values must be integers");
            out.cells.push_back(static_cast<int>(entry.asNumber()));
        }
        return true;
    }
    case explore::AxisKind::Board: {
        const JsonValue *boards = value.find("boards");
        if (!boards || !boards->isArray())
            return invalid(err, "board axis requires a boards array");
        out.boards.clear();
        for (const JsonValue &entry : boards->items()) {
            ComputeBoardRecord board;
            if (!parseBoard(entry, board, err))
                return false;
            out.boards.push_back(std::move(board));
        }
        return true;
    }
    case explore::AxisKind::Activity: {
        const JsonValue *values = value.find("values");
        if (!values || !values->isArray())
            return invalid(err,
                           "activity axis requires a values array");
        out.activities.clear();
        for (const JsonValue &entry : values->items()) {
            if (!entry.isString())
                return invalid(
                    err, "activity axis values must be strings");
            FlightActivity activity = FlightActivity::Hovering;
            if (!parseActivity(entry.asString(), activity, err))
                return false;
            out.activities.push_back(activity);
        }
        return true;
    }
    default:
        break;
    }
    if (!readDouble(value, "lo", out.lo, err) ||
        !readDouble(value, "step", out.step, err) ||
        !readSize(value, "count", out.count, err))
        return false;
    return true;
}

std::string
serializeAxis(const explore::AxisSpec &axis)
{
    std::string out = "{\"axis\": ";
    out += jsonQuote(explore::axisKindName(axis.kind));
    switch (axis.kind) {
    case explore::AxisKind::Cells:
        out += ", \"values\": [";
        for (std::size_t i = 0; i < axis.cells.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += std::to_string(axis.cells[i]);
        }
        out += "]";
        break;
    case explore::AxisKind::Board:
        out += ", \"boards\": [";
        for (std::size_t i = 0; i < axis.boards.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += serializeBoard(axis.boards[i]);
        }
        out += "]";
        break;
    case explore::AxisKind::Activity:
        out += ", \"values\": [";
        for (std::size_t i = 0; i < axis.activities.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += jsonQuote(activityName(axis.activities[i]));
        }
        out += "]";
        break;
    default:
        out += ", \"lo\": " + jsonNumber(axis.lo);
        out += ", \"step\": " + jsonNumber(axis.step);
        out += ", \"count\": " + std::to_string(axis.count);
        break;
    }
    out += "}";
    return out;
}

bool
parseSpace(const JsonValue &value, explore::ExploreSpace &out,
           ErrorReply &err)
{
    if (!value.isObject())
        return invalid(err, "space must be an object");
    if (const JsonValue *base = value.find("base")) {
        if (!parsePoint(*base, out.base, err))
            return false;
    }
    const JsonValue *axes = value.find("axes");
    if (!axes || !axes->isArray())
        return invalid(err, "space requires an axes array");
    out.axes.clear();
    for (const JsonValue &entry : axes->items()) {
        explore::AxisSpec axis;
        if (!parseAxis(entry, axis, err))
            return false;
        out.axes.push_back(std::move(axis));
    }
    return true;
}

std::string
serializeSpace(const explore::ExploreSpace &space)
{
    std::string out = "{\"base\": " + serializePoint(space.base);
    out += ", \"axes\": [";
    for (std::size_t i = 0; i < space.axes.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += serializeAxis(space.axes[i]);
    }
    out += "]}";
    return out;
}

bool
parseExploreOptions(const JsonValue &value,
                    explore::ExploreOptions &out, ErrorReply &err)
{
    if (!value.isObject())
        return invalid(err, "options must be an object");
    std::string sampler_name;
    if (!readString(value, "sampler", sampler_name, err))
        return false;
    if (!sampler_name.empty() &&
        !explore::parseSamplerKind(sampler_name, out.sampler))
        return invalid(err,
                       "unknown sampler '" + sampler_name + "'");
    return readU64(value, "seed", out.seed, err) &&
           readSize(value, "initial_samples", out.initialSamples,
                    err) &&
           readSize(value, "round_evaluations",
                    out.roundEvaluations, err) &&
           readSize(value, "max_evaluations", out.maxEvaluations,
                    err) &&
           readSize(value, "max_rounds", out.maxRounds, err) &&
           readSize(value, "neighbor_radius", out.neighborRadius,
                    err) &&
           readBool(value, "bisect_boundary", out.bisectBoundary,
                    err);
}

std::string
serializeExploreOptions(const explore::ExploreOptions &options)
{
    std::string out = "{\"sampler\": ";
    out += jsonQuote(explore::samplerKindName(options.sampler));
    out += ", \"seed\": " + std::to_string(options.seed);
    out += ", \"initial_samples\": " +
           std::to_string(options.initialSamples);
    out += ", \"round_evaluations\": " +
           std::to_string(options.roundEvaluations);
    out += ", \"max_evaluations\": " +
           std::to_string(options.maxEvaluations);
    out += ", \"max_rounds\": " + std::to_string(options.maxRounds);
    out += ", \"neighbor_radius\": " +
           std::to_string(options.neighborRadius);
    out += std::string(", \"bisect_boundary\": ") +
           (options.bisectBoundary ? "true" : "false");
    out += "}";
    return out;
}

bool
parseUncertaintyOptions(const JsonValue &value,
                        explore::UncertaintyOptions &out,
                        ErrorReply &err)
{
    if (!value.isObject())
        return invalid(err, "options must be an object");
    return readU64(value, "seed", out.seed, err) &&
           readSize(value, "samples", out.samples, err) &&
           readInt(value, "scatter_replicates",
                   out.scatterReplicates, err);
}

std::string
serializeUncertaintyOptions(
    const explore::UncertaintyOptions &options)
{
    std::string out =
        "{\"seed\": " + std::to_string(options.seed);
    out += ", \"samples\": " + std::to_string(options.samples);
    out += ", \"scatter_replicates\": " +
           std::to_string(options.scatterReplicates);
    out += "}";
    return out;
}

bool
parseGate(const JsonValue &value, explore::GateSpec &out,
          ErrorReply &err)
{
    if (!value.isObject())
        return invalid(err, "gates entries must be objects");
    std::string metric_name, op_name;
    if (!readString(value, "metric", metric_name, err) ||
        !readString(value, "op", op_name, err) ||
        !readDouble(value, "threshold", out.threshold, err) ||
        !readDouble(value, "min_probability", out.minProbability,
                    err))
        return false;
    if (!metric_name.empty() &&
        !explore::parseGateMetric(metric_name, out.metric))
        return invalid(err, "unknown metric '" + metric_name + "'");
    if (!op_name.empty() && !explore::parseGateOp(op_name, out.op))
        return invalid(err, "unknown op '" + op_name + "'");
    return true;
}

std::string
serializeGate(const explore::GateSpec &gate)
{
    std::string out = "{\"metric\": ";
    out += jsonQuote(explore::gateMetricName(gate.metric));
    out += ", \"op\": " + jsonQuote(explore::gateOpName(gate.op));
    out += ", \"threshold\": " + jsonNumber(gate.threshold);
    out += ", \"min_probability\": " +
           jsonNumber(gate.minProbability);
    out += "}";
    return out;
}

bool
parseRisk(const JsonValue &doc, explore::RiskQuery &out,
          ErrorReply &err)
{
    const JsonValue *point = doc.find("point");
    if (!point)
        return invalid(err, "risk query requires a point");
    if (!parsePoint(*point, out.point, err))
        return false;
    if (const JsonValue *options = doc.find("options")) {
        if (!parseUncertaintyOptions(*options, out.options, err))
            return false;
    }
    if (const JsonValue *gates = doc.find("gates")) {
        if (!gates->isArray())
            return invalid(err, "gates must be an array");
        out.gates.clear();
        for (const JsonValue &entry : gates->items()) {
            explore::GateSpec gate;
            if (!parseGate(entry, gate, err))
                return false;
            out.gates.push_back(gate);
        }
    }
    if (const JsonValue *quantiles = doc.find("quantiles")) {
        if (!quantiles->isArray())
            return invalid(err, "quantiles must be an array");
        out.quantiles.clear();
        for (const JsonValue &entry : quantiles->items()) {
            if (!entry.isNumber())
                return invalid(err,
                               "quantiles entries must be numbers");
            out.quantiles.push_back(entry.asNumber());
        }
    }
    return true;
}

std::string
serializeChoice(const codesign::CodesignChoice &choice)
{
    if (!choice.feasible)
        return "{\"feasible\": false}";
    const codesign::ComputeConfig &cfg = choice.config;
    std::string out = "{\"feasible\": true";
    out += ", \"board\": " + jsonQuote(cfg.boardName);
    out += ", \"platform\": " +
           jsonQuote(platformSpec(cfg.platform).name);
    out += ", \"split\": " +
           jsonQuote(codesign::offloadSplitName(cfg.split));
    out += ", \"rate_hz\": " + jsonNumber(cfg.rateHz);
    out += ", \"sustained_fps\": " + jsonNumber(cfg.sustainedFps);
    out += ", \"compute_power_w\": " +
           jsonNumber(cfg.computePowerW.value());
    out += ", \"compute_weight_g\": " +
           jsonNumber(cfg.computeWeightG.value());
    out += ", \"wheelbase_mm\": " +
           jsonNumber(choice.design.inputs.wheelbaseMm.value());
    out += ", \"cells\": " +
           std::to_string(choice.design.inputs.cells);
    out += ", \"capacity_mah\": " +
           jsonNumber(choice.design.inputs.capacityMah.value());
    out += ", \"result\": " + serializeResult(choice.design);
    out += "}";
    return out;
}

std::string
replyHead(std::uint64_t id, bool ok, const char *kind)
{
    std::string out = "{\"id\": " + std::to_string(id);
    out += ok ? ", \"ok\": true" : ", \"ok\": false";
    if (kind) {
        out += ", \"kind\": ";
        out += jsonQuote(kind);
    }
    return out;
}

} // namespace

const char *
queryKindName(QueryKind kind)
{
    switch (kind) {
    case QueryKind::Design: return "design";
    case QueryKind::Sweep: return "sweep";
    case QueryKind::Pareto: return "pareto";
    case QueryKind::Codesign: return "codesign";
    case QueryKind::Explore: return "explore";
    case QueryKind::Risk: return "risk";
    }
    panic("queryKindName: corrupt kind");
    return "";
}

const char *
queryClassName(QueryClass cls)
{
    return cls == QueryClass::Interactive ? "interactive" : "batch";
}

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::ParseError: return "parse_error";
    case ErrorCode::InvalidRequest: return "invalid_request";
    case ErrorCode::TooLarge: return "too_large";
    case ErrorCode::RateLimited: return "rate_limited";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::Internal: return "internal";
    }
    panic("errorCodeName: corrupt code");
    return "";
}

bool
parseRequest(const std::string &frame, Request &out, ErrorReply &err)
{
    out = Request{};
    std::string parse_error;
    const std::optional<JsonValue> doc =
        parseJson(frame, &parse_error);
    if (!doc) {
        err.code = ErrorCode::ParseError;
        err.message = parse_error;
        return false;
    }
    if (!doc->isObject()) {
        err.code = ErrorCode::ParseError;
        err.message = "request frame must be a JSON object";
        return false;
    }

    // Pull the id first so every later error can echo it.
    const JsonValue *id = doc->find("id");
    if (!id || !id->isNumber())
        return invalid(err, "id must be a number");
    const double id_value = id->asNumber();
    if (std::floor(id_value) != id_value || id_value < 0.0 ||
        id_value > kMaxId)
        return invalid(err,
                       "id must be a non-negative integer < 2^53");
    out.id = static_cast<std::uint64_t>(id_value);

    const JsonValue *kind = doc->find("kind");
    if (!kind || !kind->isString())
        return invalid(err, "kind must be a string");
    const std::string &kind_name = kind->asString();
    if (kind_name == "design")
        out.kind = QueryKind::Design;
    else if (kind_name == "sweep")
        out.kind = QueryKind::Sweep;
    else if (kind_name == "pareto")
        out.kind = QueryKind::Pareto;
    else if (kind_name == "codesign")
        out.kind = QueryKind::Codesign;
    else if (kind_name == "explore")
        out.kind = QueryKind::Explore;
    else if (kind_name == "risk")
        out.kind = QueryKind::Risk;
    else
        return invalid(err, "unknown query kind '" + kind_name + "'");

    std::string cls_name;
    if (!readString(*doc, "class", cls_name, err))
        return false;
    if (cls_name.empty() || cls_name == "interactive")
        out.cls = QueryClass::Interactive;
    else if (cls_name == "batch")
        out.cls = QueryClass::Batch;
    else
        return invalid(err, "unknown class '" + cls_name + "'");

    if (out.kind == QueryKind::Design) {
        const JsonValue *point = doc->find("point");
        if (!point)
            return invalid(err, "design query requires a point");
        return parsePoint(*point, out.point, err);
    }
    if (out.kind == QueryKind::Codesign) {
        const JsonValue *mission = doc->find("mission");
        if (!mission)
            return invalid(err,
                           "codesign query requires a mission");
        return parseMission(*mission, out.mission, err);
    }
    if (out.kind == QueryKind::Explore) {
        const JsonValue *space = doc->find("space");
        if (!space)
            return invalid(err, "explore query requires a space");
        if (!parseSpace(*space, out.explore.space, err))
            return false;
        if (const JsonValue *options = doc->find("options")) {
            if (!parseExploreOptions(*options, out.explore.options,
                                     err))
                return false;
        }
        return true;
    }
    if (out.kind == QueryKind::Risk)
        return parseRisk(*doc, out.risk, err);
    const JsonValue *spec = doc->find("spec");
    if (!spec)
        return invalid(err, "sweep/pareto query requires a spec");
    return parseSpec(*spec, out.spec, err);
}

std::string
serializeRequest(const Request &request)
{
    std::string out = "{\"id\": " + std::to_string(request.id);
    out += ", \"kind\": " + jsonQuote(queryKindName(request.kind));
    out +=
        ", \"class\": " + jsonQuote(queryClassName(request.cls));
    if (request.kind == QueryKind::Design)
        out += ", \"point\": " + serializePoint(request.point);
    else if (request.kind == QueryKind::Codesign)
        out += ", \"mission\": " + serializeMission(request.mission);
    else if (request.kind == QueryKind::Explore) {
        out += ", \"space\": " + serializeSpace(request.explore.space);
        out += ", \"options\": " +
               serializeExploreOptions(request.explore.options);
    } else if (request.kind == QueryKind::Risk) {
        out += ", \"point\": " + serializePoint(request.risk.point);
        out += ", \"options\": " +
               serializeUncertaintyOptions(request.risk.options);
        out += ", \"gates\": [";
        for (std::size_t i = 0; i < request.risk.gates.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += serializeGate(request.risk.gates[i]);
        }
        out += "], \"quantiles\": [";
        for (std::size_t i = 0; i < request.risk.quantiles.size();
             ++i) {
            if (i > 0)
                out += ", ";
            out += jsonNumber(request.risk.quantiles[i]);
        }
        out += "]";
    } else
        out += ", \"spec\": " + serializeSpec(request.spec);
    out += "}";
    return out;
}

std::string
serializeErrorReply(std::uint64_t id, const ErrorReply &err)
{
    std::string out = replyHead(id, false, nullptr);
    out += ", \"error\": {\"code\": " +
           jsonQuote(errorCodeName(err.code));
    out += ", \"message\": " + jsonQuote(err.message) + "}}";
    return out;
}

std::string
serializeDesignReply(std::uint64_t id, const DesignResult &result)
{
    std::string out = replyHead(id, true, "design");
    out += ", \"result\": " + serializeResult(result) + "}";
    return out;
}

std::string
serializeSweepReply(std::uint64_t id,
                    const std::vector<DesignResult> &points,
                    std::size_t feasible_count,
                    const std::vector<std::size_t> &frontier)
{
    std::string out = replyHead(id, true, "sweep");
    out += ", \"grid_points\": " + std::to_string(points.size());
    out += ", \"feasible_count\": " + std::to_string(feasible_count);
    out += ", \"frontier\": [";
    for (std::size_t i = 0; i < frontier.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += std::to_string(frontier[i]);
    }
    out += "], \"results\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += serializeResult(points[i]);
    }
    out += "]}";
    return out;
}

std::string
serializeCodesignReply(std::uint64_t id,
                       const codesign::CodesignOutcome &outcome)
{
    std::string out = replyHead(id, true, "codesign");
    out += ", \"config_count\": " +
           std::to_string(outcome.configCount);
    out += ", \"grid_points\": " +
           std::to_string(outcome.gridPoints);
    out += ", \"recommended\": " +
           serializeChoice(outcome.recommended);
    out += ", \"per_platform\": [";
    for (std::size_t i = 0; i < outcome.perPlatform.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += serializeChoice(outcome.perPlatform[i]);
    }
    out += "], \"per_split\": [";
    for (std::size_t i = 0; i < outcome.perSplit.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += serializeChoice(outcome.perSplit[i]);
    }
    out += "], \"best_sustained_fps\": [";
    for (std::size_t i = 0; i < outcome.bestSustainedFps.size();
         ++i) {
        if (i > 0)
            out += ", ";
        out += jsonNumber(outcome.bestSustainedFps[i]);
    }
    out += "]}";
    return out;
}

std::string
serializeExploreReply(std::uint64_t id,
                      const explore::ExploreResult &result)
{
    std::string out = replyHead(id, true, "explore");
    out += ", \"space_points\": " +
           std::to_string(result.spacePoints);
    out += ", \"evaluations\": " +
           std::to_string(result.evaluations());
    out += ", \"rounds\": " + std::to_string(result.rounds.size());
    out += result.converged ? ", \"converged\": true"
                            : ", \"converged\": false";
    out += ", \"frontier\": [";
    for (std::size_t i = 0; i < result.frontier.size(); ++i) {
        if (i > 0)
            out += ", ";
        const DesignResult &res = result.points[result.frontier[i]];
        out += "{\"point\": " + serializePoint(res.inputs);
        out += ", \"result\": " + serializeResult(res) + "}";
    }
    out += "], \"incumbent\": ";
    if (result.incumbent < result.points.size()) {
        const DesignResult &best = result.points[result.incumbent];
        out += "{\"point\": " + serializePoint(best.inputs);
        out += ", \"result\": " + serializeResult(best) + "}";
    } else {
        out += "null";
    }
    out += "}";
    return out;
}

std::string
serializeRiskReply(std::uint64_t id,
                   const explore::RiskOutcome &outcome,
                   const std::vector<double> &quantiles)
{
    const explore::UncertaintyResult &unc = outcome.uncertainty;
    std::string out = replyHead(id, true, "risk");
    out += ", \"nominal\": " + serializeResult(unc.nominal);
    out += ", \"samples\": " + std::to_string(unc.samples);
    out += ", \"feasible_samples\": " +
           std::to_string(unc.feasibleSamples);
    out += ", \"feasible_fraction\": " +
           jsonNumber(unc.feasibleFraction());
    out += ", \"gates\": [";
    for (std::size_t i = 0; i < outcome.report.gates.size(); ++i) {
        if (i > 0)
            out += ", ";
        const explore::GateOutcome &gate = outcome.report.gates[i];
        std::string entry = serializeGate(gate.spec);
        entry.pop_back(); // reopen the gate object
        entry += ", \"probability\": " + jsonNumber(gate.probability);
        entry += gate.pass ? ", \"pass\": true}" : ", \"pass\": false}";
        out += entry;
    }
    out += outcome.report.allPass ? "], \"all_pass\": true"
                                  : "], \"all_pass\": false";
    // Quantiles read off the feasible-sample ECDFs; with nothing
    // feasible there is no distribution to read, so the list is
    // empty regardless of what was requested.
    out += ", \"quantiles\": [";
    if (!unc.flightTimeMin.empty()) {
        for (std::size_t i = 0; i < quantiles.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += "{\"q\": " + jsonNumber(quantiles[i]);
            out += ", \"flight_time_min\": " +
                   jsonNumber(unc.flightTimeMin.quantile(
                       quantiles[i]));
            out += ", \"total_weight_g\": " +
                   jsonNumber(
                       unc.totalWeightG.quantile(quantiles[i]));
            out += "}";
        }
    }
    out += "]}";
    return out;
}

std::string
serializeParetoReply(std::uint64_t id,
                     const std::vector<DesignResult> &points,
                     const std::vector<std::size_t> &frontier)
{
    std::string out = replyHead(id, true, "pareto");
    out += ", \"grid_points\": " + std::to_string(points.size());
    out += ", \"frontier\": [";
    for (std::size_t i = 0; i < frontier.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += std::to_string(frontier[i]);
    }
    out += "], \"results\": [";
    for (std::size_t i = 0; i < frontier.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += serializeResult(points[frontier[i]]);
    }
    out += "]}";
    return out;
}

} // namespace dronedse::serve
