"""dgetrf, dgetrs and dgtsv from scipy's compiled LAPACK module, and dst and
dct from its compiled pocketfft module: the very functions scipy.linalg and
scipy.fft call, loaded by their file paths, since importing either package
runs its init, hundreds of modules and about 0.2 s per start.  A later
`import scipy.linalg` or `import scipy.fft` still works."""

from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path


def _load(name: str):
    """scipy's compiled module scipy.<name>, loaded from its file under its
    own dotted name: a pybind11 module exports nothing under another."""
    *package, leaf = name.split(".")
    where = Path(find_spec("scipy").submodule_search_locations[0], *package)
    for path in (where / f"{leaf}{suffix}" for suffix in EXTENSION_SUFFIXES):
        if path.is_file():
            spec = spec_from_file_location(f"scipy.{name}", path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no scipy extension {leaf} in {where}")


_flapack = _load("linalg._flapack")
dgetrf, dgetrs, dgtsv = _flapack.dgetrf, _flapack.dgetrs, _flapack.dgtsv
_pocketfft = _load("fft._pocketfft.pypocketfft")
dst, dct = _pocketfft.dst, _pocketfft.dct
