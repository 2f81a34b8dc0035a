"""Simulated BLIP-2: Visual Question Answering and image-select over rasters.

The real CAESURA prototype uses BLIP-2 [Li et al., 2023] for its VisualQA
and Image Select operators.  This simulator reproduces the operator
*contract* — (image, natural-language question) → typed answer — with a
pixel-level detector:

1. colour segmentation in one lookup: per-channel tables map each channel
   value to the bitmask of categories whose colour it is within L∞
   tolerance of, so ``lut_r[R] & lut_g[G] & lut_b[B]`` is every pixel's
   category membership;
2. connected-component labelling (``scipy.ndimage.label``, 4-connected)
   for each category whose bit is present;
3. components of at least a minimum area count as object instances; areas
   and centroids come from ``np.bincount`` over the label image.

Detections depend only on the pixels, the tolerance and the minimum area,
so each image keeps them (see :meth:`Blip2Sim.detect`) and later questions
about it read neither pixels nor the detector.  The detector sees only
:attr:`Image.pixels`; the scene ground truth stays in the dataset
generator.  An optional miss-probability noise model, applied per call,
lets robustness experiments degrade the "model".
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.errors import OperatorError
from repro.vision.image import Image
from repro.vision.scene import CATEGORIES, categories_in_phrase

COLOR_TOLERANCE = 30
MIN_COMPONENT_AREA = 5

#: ``tolerance`` → ``(3, 256)`` per-channel tables of category bitmasks,
#: built on first use: a model is constructed per query, a table only once.
_LOOKUP_TABLES: dict[int, np.ndarray] = {}

_COUNT_PATTERNS = (
    re.compile(r"how many\b(?P<rest>.*)", re.IGNORECASE),
    re.compile(r"(?:what is the )?number of\b(?P<rest>.*)", re.IGNORECASE),
    re.compile(r"count (?:the |of )?(?P<rest>.*)", re.IGNORECASE),
)
_YESNO_PATTERNS = (
    re.compile(r"^(?:is|are)\b(?P<rest>.*)", re.IGNORECASE),
    re.compile(r"^(?:does|do) the (?:image|painting|picture) (?:show|depict|"
               r"contain)\b(?P<rest>.*)", re.IGNORECASE),
)
_WHAT_PATTERN = re.compile(
    r"what (?:is|objects? (?:are|is)) (?:depicted|shown|visible)",
    re.IGNORECASE)


@dataclass(frozen=True)
class Detection:
    """One detected object instance."""

    category: str
    cx: float
    cy: float
    area: int


def _lookup_tables(tolerance: int) -> np.ndarray:
    """Row *c*, entry *v*: bit *i* set when channel value *v* is within
    *tolerance* of channel *c* of category *i*'s colour."""
    tables = _LOOKUP_TABLES.get(tolerance)
    if tables is None:
        dtype = np.min_scalar_type((1 << len(CATEGORIES)) - 1)
        tables = np.zeros((3, 256), dtype=dtype)
        values = np.arange(256)
        for bit, category in enumerate(CATEGORIES.values()):
            color = np.array(category.color)[:, None]
            near = np.abs(values[None, :] - color) <= tolerance
            tables |= near.astype(dtype) << bit
        _LOOKUP_TABLES[tolerance] = tables
    return tables


def _detect_pixels(pixels: np.ndarray, tolerance: int,
                   min_area: int) -> tuple[Detection, ...]:
    """Every category's components of at least *min_area* pixels, in
    category order, each category's in ``ndimage.label`` order."""
    red, green, blue = _lookup_tables(tolerance)
    members = (red[pixels[..., 0]] & green[pixels[..., 1]]
               & blue[pixels[..., 2]])
    present = int(np.bitwise_or.reduce(members, axis=None))
    width = pixels.shape[1]
    detections = []
    for bit, category in enumerate(CATEGORIES.values()):
        if not present & (1 << bit):
            continue
        labelled, count = ndimage.label(members & (1 << bit))
        flat = labelled.ravel()
        where = np.flatnonzero(flat)
        labels = flat[where]
        ys, xs = np.divmod(where, width)
        areas = np.bincount(labels, minlength=count + 1)
        # Integer coordinate sums are exact in float64, so sum / area is
        # bit for bit the mean of the component's coordinates.
        xsums = np.bincount(labels, weights=xs, minlength=count + 1)
        ysums = np.bincount(labels, weights=ys, minlength=count + 1)
        for index in range(1, count + 1):
            area = int(areas[index])
            if area >= min_area:
                detections.append(Detection(
                    category.name, float(xsums[index] / area),
                    float(ysums[index] / area), area))
    return tuple(detections)


class Blip2Sim:
    """Simulated BLIP-2 visual model (detection + VQA + yes/no select)."""

    def __init__(self, tolerance: int = COLOR_TOLERANCE,
                 min_area: int = MIN_COMPONENT_AREA,
                 miss_probability: float = 0.0, seed: int = 0):
        if not 0.0 <= miss_probability <= 1.0:
            raise ValueError("miss_probability must be within [0, 1]")
        for name, value in (("tolerance", tolerance), ("min_area", min_area)):
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                raise ValueError(
                    f"{name} must be a non-negative int, got {value!r}")
        self.tolerance = tolerance
        self.min_area = min_area
        self.miss_probability = miss_probability
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def detect(self, image: Image) -> list[Detection]:
        """All object instances found in *image*, every category.

        The noise-free detections are memoized on *image* per
        ``(tolerance, min_area)`` — like its fingerprint, they live as long
        as the image and are shared by every model over it.  The
        miss-probability filter runs after the memo, drawing once per
        detection on every call, and the result is always a fresh list.
        """
        key = (self.tolerance, self.min_area)
        memo = image._detections
        if memo is None:
            memo = image._detections = {}
        found = memo.get(key)
        if found is None:
            found = memo[key] = _detect_pixels(image.pixels, *key)
        if self.miss_probability > 0.0:
            return [d for d in found
                    if self._rng.random() >= self.miss_probability]
        return list(found)

    def count(self, image: Image, category: str) -> int:
        return sum(1 for d in self.detect(image) if d.category == category)

    def depicted_categories(self, image: Image) -> list[str]:
        seen: list[str] = []
        for detection in self.detect(image):
            if detection.category not in seen:
                seen.append(detection.category)
        return seen

    # ------------------------------------------------------------------
    # Visual Question Answering
    # ------------------------------------------------------------------

    def answer(self, image: Image, question: str) -> object:
        """Answer a natural-language *question* about *image*.

        Supported question families (mirroring BLIP-2 usage in the paper):
        counting ("How many swords are depicted?"), yes/no ("Is Madonna and
        Child depicted?") and open listing ("What is depicted?").
        Yes/no answers are the literal strings ``"yes"`` / ``"no"`` — the
        interleaved mapping phase relies on observing those values.
        """
        question = question.strip()
        if not question:
            raise OperatorError("empty VQA question", operator="VisualQA")

        for pattern in _COUNT_PATTERNS:
            match = pattern.search(question)
            if match:
                categories = categories_in_phrase(match.group("rest"))
                if not categories:
                    raise OperatorError(
                        f"VQA cannot resolve object in question {question!r}",
                        operator="VisualQA")
                return self.count(image, categories[0].name)

        if _WHAT_PATTERN.search(question):
            return ", ".join(self.depicted_categories(image)) or "nothing"

        for pattern in _YESNO_PATTERNS:
            match = pattern.search(question)
            if match:
                categories = categories_in_phrase(match.group("rest"))
                if not categories:
                    raise OperatorError(
                        f"VQA cannot resolve object in question {question!r}",
                        operator="VisualQA")
                present = self.depicted_categories(image)
                ok = all(c.name in present for c in categories)
                return "yes" if ok else "no"

        # Fall back: any mentioned category → yes/no on all of them.
        categories = categories_in_phrase(question)
        if categories:
            present = self.depicted_categories(image)
            ok = all(c.name in present for c in categories)
            return "yes" if ok else "no"
        raise OperatorError(
            f"VQA does not understand question {question!r}",
            operator="VisualQA")

    # ------------------------------------------------------------------
    # Image Select
    # ------------------------------------------------------------------

    def matches_description(self, image: Image, description: str) -> bool:
        """True when every object mentioned in *description* is depicted.

        Backs the Image Select operator ("select images showing Madonna and
        Child").
        """
        categories = categories_in_phrase(description)
        if not categories:
            raise OperatorError(
                f"Image Select cannot resolve description {description!r}",
                operator="Image Select")
        present = set(self.depicted_categories(image))
        return all(c.name in present for c in categories)
