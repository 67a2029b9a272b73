type t =
  | Feature_map of {
      channels : int;
      height : int;
      width : int;
    }
  | Vector of { features : int }

let feature_map ~channels ~height ~width =
  if channels <= 0 || height <= 0 || width <= 0 then
    invalid_arg "Shape.feature_map: non-positive dimension";
  Feature_map { channels; height; width }

let vector features =
  if features <= 0 then invalid_arg "Shape.vector: non-positive dimension";
  Vector { features }

let elements = function
  | Feature_map { channels; height; width } -> channels * height * width
  | Vector { features } -> features

let bytes ~activation_bits t =
  if activation_bits <= 0 then invalid_arg "Shape.bytes: non-positive precision";
  float_of_int (elements t) *. float_of_int activation_bits /. 8.

let spatial = function
  | Feature_map { height; width; _ } -> (height, width)
  | Vector _ -> (1, 1)

let equal a b = a = b

let pp ppf = function
  | Feature_map { channels; height; width } ->
    Format.fprintf ppf "%dx%dx%d" channels height width
  | Vector { features } -> Format.fprintf ppf "%d" features

let to_string t = Format.asprintf "%a" pp t
