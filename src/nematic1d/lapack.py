"""dgetrf, dgetrs and dgtsv from scipy's compiled LAPACK module, the very
functions scipy.linalg.lapack exports, loaded by its file path: importing
scipy.linalg runs its package init, about 280 modules and 0.2 s per start.
A later `import scipy.linalg` still works."""

from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path


def _load_flapack():
    where = Path(find_spec("scipy").submodule_search_locations[0]) / "linalg"
    for path in (where / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES):
        if path.is_file():
            spec = spec_from_file_location("scipy.linalg._flapack", path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no scipy LAPACK extension _flapack in {where}")


_flapack = _load_flapack()
dgetrf, dgetrs, dgtsv = _flapack.dgetrf, _flapack.dgetrs, _flapack.dgtsv
