#include "components/compute_board.hh"

#include "util/logging.hh"

namespace dronedse {

BoardName::BoardName(std::string_view text)
{
    if (!fits(text))
        fatal("BoardName: '" + std::string(text) + "' exceeds " +
              std::to_string(kCapacity) + " bytes");
    std::copy(text.begin(), text.end(), bytes_);
    size_ = static_cast<unsigned char>(text.size());
}

const std::vector<ComputeBoardRecord> &
computeBoardTable()
{
    // Power figures follow Table 4's current @ voltage ratings.
    static const std::vector<ComputeBoardRecord> table = {
        {"iFlight SucceX-E F4", BoardClass::Basic, 7.6, 0.5},
        {"DJI NAZA-M Lite", BoardClass::Basic, 66.3, 1.5},
        {"DJI NAZA-M V2", BoardClass::Basic, 82.0, 1.5},
        {"Pixhawk 4", BoardClass::Basic, 15.8, 2.0},
        {"Mateksys F405", BoardClass::Basic, 17.0, 1.0},
        {"Intel Aero", BoardClass::Improved, 30.0, 10.0},
        {"Navio2", BoardClass::Improved, 23.0, 0.75},
        {"Raspberry Pi 4", BoardClass::Improved, 50.0, 5.0},
        {"Nvidia Jetson TX2", BoardClass::Improved, 85.0, 10.0},
        {"DJI Manifold", BoardClass::Improved, 200.0, 20.0},
    };
    return table;
}

const ComputeBoardRecord &
findComputeBoard(const std::string &name)
{
    for (const auto &rec : computeBoardTable()) {
        if (rec.name.view() == name)
            return rec;
    }
    fatal("findComputeBoard: unknown board '" + name + "'");
}

ComputeBoardRecord
basicChip3W()
{
    return {"Basic 3W chip", BoardClass::Basic, 20.0, 3.0};
}

ComputeBoardRecord
advancedChip20W()
{
    return {"Advanced 20W chip", BoardClass::Improved, 85.0, 20.0};
}

} // namespace dronedse
