// Fixture: a mutator-named method called on a standard-library object
// the observer declares itself is not a simulator mutation — here
// unique_ptr::release() handing the trace file to fclose.

#include <cstdio>
#include <memory>

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};

int
closeTrace(std::unique_ptr<std::FILE, FileCloser> &file)
{
    return std::fclose(file.release());
}

void
adopt(std::FILE *raw)
{
    std::unique_ptr<std::FILE, FileCloser> owned(raw);
    std::FILE *f = owned.release();
    (void)f;
}
