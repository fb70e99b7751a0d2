#include "cache/completion.hpp"

#include "cache/cache.hpp"
// Header-only use of the core: the completion methods invoked below
// are defined inline in ooo_core.hpp, so this file adds no link
// dependency from the cache library to the core library.
#include "core/ooo_core.hpp"

namespace bingo
{

void
Completion::operator()(Cycle when) const
{
    switch (kind_) {
      case Kind::LoadFill:
        static_cast<OooCore *>(target_)->completeLoad(seq_, when);
        break;
      case Kind::StoreRelease:
        static_cast<OooCore *>(target_)->completeStore(when);
        break;
      case Kind::CacheFill:
        static_cast<Cache *>(target_)->handleFill(slot_, when);
        break;
      case Kind::Generic:
        fn_->call(when);
        break;
      case Kind::None:
        break;
    }
}

} // namespace bingo
