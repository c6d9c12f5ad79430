#include "sim/engine.h"

namespace spr {

std::string EngineStats::to_string() const {
  return "rounds=" + std::to_string(rounds) +
         " broadcasts=" + std::to_string(broadcasts) +
         " receptions=" + std::to_string(receptions);
}

}  // namespace spr
