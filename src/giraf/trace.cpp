#include "giraf/trace.hpp"

#include <sstream>

namespace anon {

std::string Trace::summary() const {
  std::ostringstream os;
  os << "trace{eor=" << eors_.size() << ", deliveries=" << deliveries_.size()
     << ", crashes=" << crashes_.size() << ", max_round=" << max_round()
     << "}";
  return os.str();
}

}  // namespace anon
