/**
 * @file
 * Flight controllers and companion compute boards (paper Table 4).
 *
 * The paper splits controllers into "basic" boards (inner-loop only,
 * STM32F-class) and "improved" boards (customizable inner loop plus
 * outer-loop capability).  In the footprint analysis these are
 * abstracted to two power levels: a 3 W chip (basic) and a 20 W chip
 * (advanced CPU/GPU system).
 */

#ifndef DRONEDSE_COMPONENTS_COMPUTE_BOARD_HH
#define DRONEDSE_COMPONENTS_COMPUTE_BOARD_HH

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace dronedse {

/** Capability class of a compute board (paper Table 4 grouping). */
enum class BoardClass
{
    /** Inner-loop only, limited outer-loop capability. */
    Basic,
    /** Customizable inner loop plus outer-loop functions. */
    Improved,
};

/**
 * A board name stored inline: at most `kCapacity` bytes, no heap, so
 * every record that carries one (and every design result that echoes
 * it) stays trivially copyable.  String literals convert implicitly
 * and are length-checked at compile time; runtime text must go
 * through the explicit constructor, after `fits()` — request parsing
 * rejects a longer name with a typed error before it gets here.
 */
class BoardName
{
  public:
    static constexpr std::size_t kCapacity = 63;

    constexpr BoardName() = default;

    template <std::size_t N>
    constexpr BoardName(const char (&literal)[N]) // NOLINT: implicit
        : size_(static_cast<unsigned char>(N - 1))
    {
        static_assert(N - 1 <= kCapacity, "board name too long");
        std::copy_n(literal, N - 1, bytes_);
    }

    /** Runtime text; fatal() if it does not `fits()`. */
    explicit BoardName(std::string_view text);

    static constexpr bool fits(std::string_view text)
    {
        return text.size() <= kCapacity;
    }

    std::string_view view() const { return {bytes_, size_}; }
    std::string str() const { return std::string(view()); }

    bool operator==(const BoardName &other) const
    {
        return view() == other.view();
    }

  private:
    char bytes_[kCapacity] = {};
    unsigned char size_ = 0;
};

/** One flight controller or companion computer. */
struct ComputeBoardRecord
{
    BoardName name;
    BoardClass boardClass = BoardClass::Basic;
    /** Board weight (g). */
    double weightG = 0.0;
    /** Typical power draw (W). */
    double powerW = 0.0;
};

/** The Table 4 flight controller / compute board database. */
const std::vector<ComputeBoardRecord> &computeBoardTable();

/** Look up a board by name; fatal() if absent. */
const ComputeBoardRecord &findComputeBoard(const std::string &name);

/**
 * The paper's abstract "3 W chip" representing a commercial
 * ultra-low-power flight controller (Section 3.1).
 */
ComputeBoardRecord basicChip3W();

/**
 * The paper's abstract "20 W chip" representing a CPU-GPU system
 * with much higher capability (Section 3.1).
 */
ComputeBoardRecord advancedChip20W();

} // namespace dronedse

#endif // DRONEDSE_COMPONENTS_COMPUTE_BOARD_HH
