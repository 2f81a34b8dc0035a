"""The simulated BLIP-2 detector: kernel parity, ground truth, memo.

The oracle is the original detector — one L∞ colour-mask pass and one
``labelled == index`` pass per component for each of the 16 categories —
kept here verbatim in behaviour.  The lookup-table kernel must return
``==`` detection lists (float centroids included) on lake images and on
rasters built to sit on every edge of the colour test.
"""

import random
import sys
import threading

import numpy as np
import pytest
from scipy import ndimage

from repro.datasets.artwork import generate_artwork_dataset
from repro.vision import (CATEGORIES, Blip2Sim, Detection, Image, build_scene,
                          render_scene)
from repro.vision.blip import COLOR_TOLERANCE, MIN_COMPONENT_AREA

BACKGROUND = (115, 115, 115)


def oracle_detect(pixels: np.ndarray, tolerance: int = COLOR_TOLERANCE,
                  min_area: int = MIN_COMPONENT_AREA) -> list[Detection]:
    pixels = pixels.astype(np.int16)
    detections = []
    for category in CATEGORIES.values():
        color = np.array(category.color, dtype=np.int16)
        mask = (np.abs(pixels - color[None, None, :]) <= tolerance).all(axis=2)
        if not mask.any():
            continue
        labelled, count = ndimage.label(mask)
        for index in range(1, count + 1):
            component = labelled == index
            area = int(component.sum())
            if area < min_area:
                continue
            ys, xs = np.nonzero(component)
            detections.append(Detection(category.name, float(xs.mean()),
                                        float(ys.mean()), area))
    return detections


def fresh_detect(pixels: np.ndarray, tolerance: int = COLOR_TOLERANCE,
                 min_area: int = MIN_COMPONENT_AREA) -> list[Detection]:
    """The kernel on a memo-less image."""
    return Blip2Sim(tolerance=tolerance, min_area=min_area).detect(
        Image(pixels))


def blank(height: int = 16, width: int = 16) -> np.ndarray:
    return np.full((height, width, 3), BACKGROUND, dtype=np.uint8)


def edge_raster(tolerance: int) -> np.ndarray:
    """One pixel per (category, channel, offset) with the offset at exactly
    ±tolerance and ±(tolerance + 1) of the category colour, clipped."""
    offsets = (-tolerance - 1, -tolerance, tolerance, tolerance + 1)
    pixels = blank(2 * len(CATEGORIES), 2 * 3 * len(offsets))
    for row, category in enumerate(CATEGORIES.values()):
        for channel in range(3):
            for slot, offset in enumerate(offsets):
                value = np.array(category.color)
                value[channel] = value[channel] + offset
                column = 2 * (channel * len(offsets) + slot)
                pixels[2 * row, column] = np.clip(value, 0, 255)
    return pixels


def clipped_raster() -> np.ndarray:
    """Every pixel built from channel values at or near 0 and 255."""
    levels = (0, 1, 29, 30, 31, 224, 225, 226, 254, 255)
    grid = np.array(np.meshgrid(levels, levels, levels, indexing="ij"))
    return grid.reshape(3, len(levels), -1).transpose(1, 2, 0).astype(
        np.uint8)


def noise_rasters() -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    return [rng.integers(0, 256, size=shape, dtype=np.uint8)
            for shape in ((64, 64, 3), (17, 40, 3), (1, 1, 3), (40, 9, 3))]


@pytest.fixture(scope="module")
def lake_images():
    dataset = generate_artwork_dataset(seed=0, scale=10)
    return dataset.images.column("image")


# ----------------------------------------------------------------------
# Kernel parity with the 16-pass oracle
# ----------------------------------------------------------------------


def test_kernel_matches_oracle_on_every_scale_10_image(lake_images):
    assert len(lake_images) == 1200
    for image in lake_images:
        expected = oracle_detect(image.pixels)
        assert Blip2Sim().detect(image) == expected, image.path
        assert Blip2Sim().detect(image) == expected, image.path  # memo hit


@pytest.mark.parametrize("tolerance", [COLOR_TOLERANCE, 0, 10])
def test_kernel_matches_oracle_at_the_tolerance_edge(tolerance):
    pixels = edge_raster(tolerance)
    for min_area in (0, 1):
        found = fresh_detect(pixels, tolerance, min_area)
        assert found == oracle_detect(pixels, tolerance, min_area)
    # Offsets within tolerance are found (unless clipping moved them).
    assert len(fresh_detect(pixels, tolerance, 1)) >= 2 * len(CATEGORIES)


def test_kernel_matches_oracle_on_clipped_channels():
    pixels = clipped_raster()
    for tolerance in (0, 1, 30, 31, 255):
        for min_area in (0, 1, 2):
            assert fresh_detect(pixels, tolerance, min_area) \
                == oracle_detect(pixels, tolerance, min_area)


def test_diagonal_neighbours_stay_separate_components():
    pixels = blank()
    sword = CATEGORIES["sword"].color
    for step in range(4):
        pixels[3 + step, 3 + step] = sword
    found = fresh_detect(pixels, min_area=1)
    assert found == oracle_detect(pixels, min_area=1)
    assert [d.area for d in found] == [1, 1, 1, 1]


def test_components_just_below_and_at_min_area():
    pixels = blank()
    dog = CATEGORIES["dog"].color
    pixels[2, 2:2 + MIN_COMPONENT_AREA - 1] = dog
    pixels[8, 2:2 + MIN_COMPONENT_AREA] = dog
    found = fresh_detect(pixels)
    assert found == oracle_detect(pixels)
    assert found == [Detection("dog", 4.0, 8.0, MIN_COMPONENT_AREA)]


def test_kernel_matches_oracle_on_uniform_noise():
    for pixels in noise_rasters():
        for tolerance in (COLOR_TOLERANCE, 60):
            for min_area in (0, 1, 3):
                assert fresh_detect(pixels, tolerance, min_area) \
                    == oracle_detect(pixels, tolerance, min_area)


@pytest.mark.parametrize("tolerance", [0, 10, 300])
@pytest.mark.parametrize("min_area", [0, 1, 12])
def test_kernel_matches_oracle_off_the_defaults(lake_images, tolerance,
                                                 min_area):
    rasters = ([image.pixels for image in lake_images[:40]]
               + noise_rasters() + [edge_raster(tolerance),
                                    clipped_raster()])
    for pixels in rasters:
        assert fresh_detect(pixels, tolerance, min_area) \
            == oracle_detect(pixels, tolerance, min_area)


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_detection_counts_match_scene_ground_truth(seed):
    dataset = generate_artwork_dataset(seed=seed, scale=10)
    model = Blip2Sim()
    mismatches = []
    for image in dataset.images.column("image"):
        scene = dataset.scene_of(image.path)
        counts: dict[str, int] = {}
        for detection in model.detect(image):
            counts[detection.category] = counts.get(detection.category,
                                                    0) + 1
        expected = {name: scene.count(name) for name in scene.categories}
        if counts != expected:
            mismatches.append(image.path)
    assert mismatches == []


FIXED_SCENES = [
    {"sword": 2, "dog": 1},
    {"madonna": 1, "child": 1, "halo": 2},
    {"tree": 3, "boat": 1, "sun": 1},
    {},
]


@pytest.mark.parametrize("counts", FIXED_SCENES)
def test_answers_agree_with_scene_ground_truth(counts):
    scene = build_scene(counts, seed=5)
    assert {name: scene.count(name) for name in scene.categories} == counts
    image = render_scene(scene, path="img/fixed.png")
    model = Blip2Sim()
    for name in CATEGORIES:
        assert model.answer(image, f"How many {name}s are depicted?") \
            == scene.count(name)
        expected = "yes" if scene.depicts(name) else "no"
        assert model.answer(image, f"Is a {name} depicted?") == expected
        assert model.matches_description(image, f"a painting showing a "
                                                f"{name}") is scene.depicts(
                                                    name)
    depicted = model.answer(image, "What is depicted?")
    if counts:
        assert sorted(depicted.split(", ")) == sorted(scene.categories)
    else:
        assert depicted == "nothing"
    if len(scene.categories) >= 2:
        first, second = scene.categories[:2]
        assert model.matches_description(image, f"{first} and {second}")
        absent = next(name for name in CATEGORIES if not scene.depicts(name))
        assert not model.matches_description(image, f"{first} and {absent}")


# ----------------------------------------------------------------------
# Validation, noise and memo semantics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"tolerance": -1}, {"tolerance": 1.5}, {"tolerance": True},
    {"tolerance": "30"}, {"min_area": -1}, {"min_area": 2.0},
    {"min_area": None}, {"miss_probability": 1.5},
])
def test_constructor_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        Blip2Sim(**kwargs)


def test_miss_probability_draws_like_the_oracle_on_miss_and_hit(lake_images):
    # Fresh images, so the first round misses the memo and the rest hit.
    images = [Image(image.pixels.copy(), path=image.path)
              for image in lake_images[:30]]
    model = Blip2Sim(miss_probability=0.3, seed=17)
    rng = random.Random(17)
    for _ in range(3):
        for image in images:
            expected = [d for d in oracle_detect(image.pixels)
                        if rng.random() >= 0.3]
            assert model.detect(image) == expected


def test_different_tolerances_never_share_a_memo_entry():
    pixels = blank()
    sword = np.array(CATEGORIES["sword"].color)
    pixels[4:8, 4:8] = np.clip(sword + [10, -10, -10], 0, 255)
    for order in ((0, COLOR_TOLERANCE), (COLOR_TOLERANCE, 0)):
        image = Image(pixels.copy())
        for tolerance in order:
            assert Blip2Sim(tolerance=tolerance).detect(image) \
                == oracle_detect(pixels, tolerance)
        assert Blip2Sim(tolerance=0).detect(image) == []
        assert len(Blip2Sim(tolerance=COLOR_TOLERANCE).detect(image)) == 1
        assert Blip2Sim(tolerance=0, min_area=20).detect(image) == []
        assert Blip2Sim(min_area=20).detect(image) == []


def test_returned_lists_are_fresh():
    image = render_scene(build_scene({"sword": 2}, seed=3))
    model = Blip2Sim()
    found = model.detect(image)
    assert len(found) == 2
    found.clear()
    assert model.detect(image) == oracle_detect(image.pixels)
    assert model.detect(image) is not model.detect(image)


class CountingImage(Image):
    """An image that counts reads of its pixels."""

    reads = 0

    @property
    def pixels(self):
        self.reads += 1
        return self._raw

    @pixels.setter
    def pixels(self, value):
        self._raw = value


def test_memo_hit_reads_no_pixels_across_models():
    image = CountingImage(render_scene(build_scene({"dog": 2}, seed=4)).pixels)
    reads = image.reads
    first = Blip2Sim().detect(image)
    assert image.reads == reads + 1
    Blip2Sim(miss_probability=0.5, seed=1).detect(image)
    assert Blip2Sim().answer(image, "How many dogs are depicted?") == 2
    assert Blip2Sim().detect(image) == first
    assert image.reads == reads + 1


def test_concurrent_detects_share_one_memo(lake_images):
    # More threads than cores and a short switch interval, so racing
    # first detections interleave; every caller must still get the
    # oracle's list, and each image ends with one entry per key.
    images = [Image(image.pixels.copy(), path=image.path)
              for image in lake_images[40:80]]
    expected = {(id(image), tolerance): oracle_detect(image.pixels, tolerance)
                for image in images for tolerance in (0, COLOR_TOLERANCE)}
    failures: list[str] = []

    def worker(offset: int) -> None:
        for round_ in range(3):
            for tolerance in (0, COLOR_TOLERANCE):
                model = Blip2Sim(tolerance=tolerance)
                for image in images[offset:] + images[:offset]:
                    if model.detect(image) != expected[id(image), tolerance]:
                        failures.append(f"{image.path} @ {tolerance}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,))
                   for offset in range(0, 40, 5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    for image in images:
        assert sorted(image._detections) == [
            (0, MIN_COMPONENT_AREA), (COLOR_TOLERANCE, MIN_COMPONENT_AREA)]
