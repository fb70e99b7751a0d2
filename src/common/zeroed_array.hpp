/**
 * @file
 * ZeroedArray: a fixed-length array that starts as zero bytes.
 *
 * The simulator's bulk storage is its prefetchers' metadata tables:
 * about 210 MB in a four-core Hybrid System, most of it in tables of
 * several MB. Taken from the heap, such a table's first write
 * zero-filled all of it, and what a finished job freed stayed in the
 * allocator arena of the thread that freed it. A sweep's peak memory
 * then depended on which jobs happened to overlap on which threads. So
 * an array of at least kOwnPagesBytes maps pages of its own instead:
 * they read as zero, a page costs memory only once something is
 * written to it, and every page goes back to the OS when the array is
 * destroyed. Smaller arrays come from calloc, where the next job reuses
 * a freed array's memory without page faults; their few MB per System
 * do not move the peak.
 *
 * Elements start as zero bytes, not as T{}: T must be trivially
 * copyable, and its users must read an all-zero element as "never
 * written" (SetAssocTable: an invalid way).
 */

#ifndef BINGO_COMMON_ZEROED_ARRAY_HPP
#define BINGO_COMMON_ZEROED_ARRAY_HPP

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace bingo
{

/** `size` elements of T, all zero bytes until written. */
template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ZeroedArray elements start as raw zero bytes");

  public:
    /// Arrays this large (in bytes) or larger map their own pages.
    static constexpr std::size_t kOwnPagesBytes = std::size_t{1} << 20;

    ZeroedArray() = default;

    /** `size` zero elements; throws std::bad_alloc if refused. */
    explicit ZeroedArray(std::size_t size)
    {
        if (size == 0)
            return;
        if (size > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_alloc();
        void *storage = nullptr;
        if (size * sizeof(T) >= kOwnPagesBytes) {
            storage = ::mmap(nullptr, size * sizeof(T),
                             PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (storage == MAP_FAILED)
                throw std::bad_alloc();
        } else {
            storage = std::calloc(size, sizeof(T));
            if (storage == nullptr)
                throw std::bad_alloc();
        }
        data_ = static_cast<T *>(storage);
        size_ = size;
    }

    ~ZeroedArray() { release(); }

    ZeroedArray(ZeroedArray &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {
    }

    ZeroedArray &
    operator=(ZeroedArray &&other) noexcept
    {
        if (this != &other) {
            release();
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    T *data() { return data_; }
    const T *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Whether the elements live on pages of their own. */
    bool ownsPages() const { return size_ * sizeof(T) >= kOwnPagesBytes; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

  private:
    void
    release()
    {
        if (data_ != nullptr) {
            if (ownsPages())
                ::munmap(data_, size_ * sizeof(T));
            else
                std::free(data_);
        }
        data_ = nullptr;
        size_ = 0;
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace bingo

#endif // BINGO_COMMON_ZEROED_ARRAY_HPP
