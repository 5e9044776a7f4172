#include "ckpt/redundancy.h"

namespace acr::ckpt {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::Local:
      return "local";
    case Scheme::Partner:
      return "partner";
    case Scheme::Rs:
      return "rs";
  }
  return "?";
}

}  // namespace acr::ckpt
